package contract

import (
	"errors"
	"fmt"

	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// Gas schedule for contract operations, following the order of magnitude
// of the EVM so that per-lifecycle gas results (experiment E2) are
// comparable with a public-chain deployment.
const (
	GasSload      uint64 = 200   // storage read
	GasSstore     uint64 = 5_000 // storage write
	GasLogBase    uint64 = 375   // event emission
	GasLogPerByte uint64 = 8
	GasCall       uint64 = 700 // cross-contract call
	GasTransfer   uint64 = 9_000
	GasCreate     uint64 = 32_000 // contract deployment
	GasCompute    uint64 = 1      // unit of metered contract computation
	GasVMDeploy   uint64 = 20_000 // policy bytecode deployment (decode + source re-verify)
)

// MaxCallDepth bounds cross-contract call recursion.
const MaxCallDepth = 64

// Execution errors. ErrRevert wraps contract-level failures so callers
// can distinguish them from runtime misuse.
var (
	ErrOutOfGas      = errors.New("contract: out of gas")
	ErrRevert        = errors.New("contract: execution reverted")
	ErrCallDepth     = errors.New("contract: max call depth exceeded")
	ErrUnknownMethod = errors.New("contract: unknown method")
	ErrNotContract   = errors.New("contract: destination is not a contract")
)

// Revertf builds a contract-level revert error; the message lands in the
// transaction receipt.
func Revertf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRevert, fmt.Sprintf(format, args...))
}

// Context is the execution environment handed to a contract method. It
// scopes all storage access to the contract's own address, meters gas and
// collects emitted events. A Context is valid only for the duration of
// the call it was created for.
type Context struct {
	rt      *Runtime
	st      *ledger.State
	Self    identity.Address // the executing contract
	Caller  identity.Address // immediate caller (account or contract)
	Origin  identity.Address // externally-owned account that sent the tx
	Value   uint64           // native value attached to this call
	Height  uint64           // block height being executed
	gasLeft *uint64
	events  *[]ledger.Event
	depth   int
	static  bool // true in view calls: all mutations are rejected
}

// UseGas consumes n units of gas, failing with ErrOutOfGas when the
// budget is exhausted.
func (c *Context) UseGas(n uint64) error {
	if *c.gasLeft < n {
		*c.gasLeft = 0
		return ErrOutOfGas
	}
	*c.gasLeft -= n
	return nil
}

// GasLeft returns the remaining gas budget.
func (c *Context) GasLeft() uint64 { return *c.gasLeft }

// Get reads a key from the contract's own storage.
func (c *Context) Get(key string) ([]byte, error) {
	if err := c.UseGas(GasSload); err != nil {
		return nil, err
	}
	return c.st.GetStorage(c.Self, key), nil
}

// Set writes a key in the contract's own storage. Empty values delete.
func (c *Context) Set(key string, value []byte) error {
	if c.static {
		return Revertf("state write in view call")
	}
	if err := c.UseGas(GasSstore); err != nil {
		return err
	}
	c.st.SetStorage(c.Self, key, value)
	return nil
}

// GetUint64 reads a uint64 slot; a missing key reads as zero.
func (c *Context) GetUint64(key string) (uint64, error) {
	b, err := c.Get(key)
	if err != nil {
		return 0, err
	}
	if len(b) == 0 {
		return 0, nil
	}
	d := NewDecoder(b)
	return d.Uint64()
}

// SetUint64 writes a uint64 slot. Zero deletes the slot, so unset and
// zero are indistinguishable — the usual convention for balances.
func (c *Context) SetUint64(key string, v uint64) error {
	if v == 0 {
		return c.Set(key, nil)
	}
	return c.Set(key, NewEncoder().Uint64(v).Bytes())
}

// Keys lists the contract's storage keys with the given prefix, in sorted
// order, charging one read per returned key.
func (c *Context) Keys(prefix string) ([]string, error) {
	keys := c.st.StorageKeys(c.Self, prefix)
	if err := c.UseGas(GasSload * uint64(len(keys)+1)); err != nil {
		return nil, err
	}
	return keys, nil
}

// Emit appends an event to the transaction's audit log.
func (c *Context) Emit(topic string, data []byte) error {
	if c.static {
		return Revertf("event emission in view call")
	}
	if err := c.UseGas(GasLogBase + GasLogPerByte*uint64(len(topic)+len(data))); err != nil {
		return err
	}
	*c.events = append(*c.events, ledger.Event{
		Contract: c.Self,
		Topic:    topic,
		Data:     append([]byte(nil), data...),
	})
	return nil
}

// EmitEncoded is Emit with ABI-encoded fields.
func (c *Context) EmitEncoded(topic string, enc *Encoder) error {
	return c.Emit(topic, enc.Bytes())
}

// BalanceOf returns the native-token balance of any account.
func (c *Context) BalanceOf(addr identity.Address) (uint64, error) {
	if err := c.UseGas(GasSload); err != nil {
		return 0, err
	}
	return c.st.Balance(addr), nil
}

// Transfer moves native tokens from the contract's own balance.
func (c *Context) Transfer(to identity.Address, amount uint64) error {
	if c.static {
		return Revertf("transfer in view call")
	}
	if err := c.UseGas(GasTransfer); err != nil {
		return err
	}
	if err := c.st.SubBalance(c.Self, amount); err != nil {
		return Revertf("contract balance too low: %v", err)
	}
	if err := c.st.AddBalance(to, amount); err != nil {
		return Revertf("credit failed: %v", err)
	}
	return nil
}

// CallContract invokes a method on another contract, transferring value
// from the current contract. The callee runs against the same journal, so
// an error reverts its effects while the caller may continue.
func (c *Context) CallContract(to identity.Address, method string, args []byte, value uint64) ([]byte, error) {
	if err := c.UseGas(GasCall); err != nil {
		return nil, err
	}
	if c.depth+1 > MaxCallDepth {
		return nil, ErrCallDepth
	}
	if c.static {
		return c.rt.callStatic(c.st, c.Self, c.Origin, to, method, args, c.Height, c.gasLeft, c.depth+1)
	}
	return c.rt.call(c.st, c.Self, c.Origin, to, method, args, value, c.Height, c.gasLeft, c.events, c.depth+1)
}

// ContractExists reports whether an address holds deployed code.
func (c *Context) ContractExists(addr identity.Address) (bool, error) {
	if err := c.UseGas(GasSload); err != nil {
		return false, err
	}
	return len(c.st.GetStorage(addr, codeKey)) > 0, nil
}
