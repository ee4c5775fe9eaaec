package ledger

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// mStateWrites counts journaled primitive mutations (balance, nonce and
// storage writes) — the state-pressure signal behind every gas number.
var mStateWrites = telemetry.C("ledger.state.writes_total")

// State is the replicated world state of the governance ledger: native
// token balances, account nonces and per-contract key/value storage.
//
// All mutations are journaled, so the contract runtime can take snapshots
// and revert to them — the mechanism behind transactional contract calls
// ("revert semantics"). Commit collapses the journal at the end of every
// successfully applied transaction.
//
// Concurrency contract: exactly one goroutine mutates the state (and
// owns the journal) at a time, but any number of goroutines may read
// concurrently with that writer — each primitive access takes the
// state's read-write lock.
type State struct {
	mu       sync.RWMutex
	balances map[identity.Address]uint64
	nonces   map[identity.Address]uint64
	storage  map[identity.Address]map[string][]byte
	journal  []journalEntry
}

// journalEntry is the undo record for one primitive mutation.
type journalEntry struct {
	kind     journalKind
	addr     identity.Address
	key      string
	prevU64  uint64
	prevBlob []byte
	existed  bool
}

type journalKind uint8

const (
	jBalance journalKind = iota
	jNonce
	jStorage
)

// NewState returns an empty world state.
func NewState() *State {
	return &State{
		balances: make(map[identity.Address]uint64),
		nonces:   make(map[identity.Address]uint64),
		storage:  make(map[identity.Address]map[string][]byte),
	}
}

// Balance returns the native-token balance of addr.
func (s *State) Balance(addr identity.Address) uint64 {
	s.mu.RLock()
	v := s.balances[addr]
	s.mu.RUnlock()
	return v
}

// SetBalance sets the balance of addr, journaling the previous value.
func (s *State) SetBalance(addr identity.Address, v uint64) {
	s.mu.Lock()
	s.journal = append(s.journal, journalEntry{kind: jBalance, addr: addr, prevU64: s.balances[addr]})
	s.balances[addr] = v
	s.mu.Unlock()
	mStateWrites.Inc()
}

// AddBalance credits addr. It returns an error on overflow.
func (s *State) AddBalance(addr identity.Address, v uint64) error {
	cur := s.Balance(addr)
	if cur+v < cur {
		return fmt.Errorf("ledger: balance overflow for %s", addr.Short())
	}
	s.SetBalance(addr, cur+v)
	return nil
}

// SubBalance debits addr. It returns an error on insufficient funds.
func (s *State) SubBalance(addr identity.Address, v uint64) error {
	cur := s.Balance(addr)
	if cur < v {
		return fmt.Errorf("ledger: insufficient balance for %s: have %d, need %d", addr.Short(), cur, v)
	}
	s.SetBalance(addr, cur-v)
	return nil
}

// Nonce returns the next expected transaction nonce for addr.
func (s *State) Nonce(addr identity.Address) uint64 {
	s.mu.RLock()
	v := s.nonces[addr]
	s.mu.RUnlock()
	return v
}

// SetNonce sets addr's nonce, journaling the previous value. Normal
// transaction flow only ever bumps; this exists for snapshot restore.
func (s *State) SetNonce(addr identity.Address, v uint64) {
	s.mu.Lock()
	s.journal = append(s.journal, journalEntry{kind: jNonce, addr: addr, prevU64: s.nonces[addr]})
	s.nonces[addr] = v
	s.mu.Unlock()
	mStateWrites.Inc()
}

// BumpNonce increments addr's nonce.
func (s *State) BumpNonce(addr identity.Address) {
	s.mu.Lock()
	s.journal = append(s.journal, journalEntry{kind: jNonce, addr: addr, prevU64: s.nonces[addr]})
	s.nonces[addr]++
	s.mu.Unlock()
	mStateWrites.Inc()
}

// GetStorage returns the stored value for (contract, key), or nil.
func (s *State) GetStorage(contract identity.Address, key string) []byte {
	s.mu.RLock()
	v := s.storage[contract][key]
	s.mu.RUnlock()
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// SetStorage writes a value to (contract, key). A nil or empty value
// deletes the key.
func (s *State) SetStorage(contract identity.Address, key string, value []byte) {
	s.mu.Lock()
	slot := s.storage[contract]
	prev, existed := slot[key]
	s.journal = append(s.journal, journalEntry{
		kind: jStorage, addr: contract, key: key,
		prevBlob: append([]byte(nil), prev...), existed: existed,
	})
	if len(value) == 0 {
		delete(slot, key)
	} else {
		if slot == nil {
			slot = make(map[string][]byte)
			s.storage[contract] = slot
		}
		slot[key] = append([]byte(nil), value...)
	}
	s.mu.Unlock()
	mStateWrites.Inc()
}

// StorageKeys returns the sorted keys under a contract's storage with the
// given prefix. Sorted iteration keeps contract logic deterministic.
func (s *State) StorageKeys(contract identity.Address, prefix string) []string {
	s.mu.RLock()
	var keys []string
	for k := range s.storage[contract] {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// forEachBalance walks every (address, balance) pair in no particular
// order. The callback must not mutate the state.
func (s *State) forEachBalance(fn func(identity.Address, uint64)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for a, v := range s.balances {
		fn(a, v)
	}
}

// forEachNonce walks every (address, nonce) pair.
func (s *State) forEachNonce(fn func(identity.Address, uint64)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for a, v := range s.nonces {
		fn(a, v)
	}
}

// forEachStorage walks every contract's storage slot map.
func (s *State) forEachStorage(fn func(identity.Address, map[string][]byte)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for a, slot := range s.storage {
		fn(a, slot)
	}
}

// TotalBalance returns the sum of every native-token balance. Nothing in
// the transaction semantics mints or burns native tokens after genesis,
// so this quantity is conserved across every block — the supply
// invariant the property-testing harness (internal/proptest) audits
// after each seal.
func (s *State) TotalBalance() uint64 {
	var total uint64
	s.forEachBalance(func(_ identity.Address, v uint64) { total += v })
	return total
}

// Accounts returns every address carrying a non-zero balance or nonce,
// in deterministic (address) order — the enumeration surface invariant
// auditors walk to compare replicas account by account.
func (s *State) Accounts() []identity.Address {
	seen := make(map[identity.Address]bool)
	s.forEachBalance(func(a identity.Address, v uint64) {
		if v != 0 {
			seen[a] = true
		}
	})
	s.forEachNonce(func(a identity.Address, v uint64) {
		if v != 0 {
			seen[a] = true
		}
	})
	addrs := make([]identity.Address, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sortAddresses(addrs)
	return addrs
}

// JournalLen returns the number of uncommitted journal entries. A chain
// that just sealed a block must report zero — Commit collapses the
// journal — which the invariant harness checks to pin that no partial
// transaction effects leak across block boundaries.
func (s *State) JournalLen() int { return len(s.journal) }

// Snapshot returns a marker for the current journal position.
func (s *State) Snapshot() int { return len(s.journal) }

// RevertTo undoes every mutation recorded after the snapshot marker.
func (s *State) RevertTo(snap int) {
	if snap < 0 || snap > len(s.journal) {
		panic(fmt.Sprintf("ledger: invalid snapshot %d (journal %d)", snap, len(s.journal)))
	}
	s.mu.Lock()
	for i := len(s.journal) - 1; i >= snap; i-- {
		e := s.journal[i]
		switch e.kind {
		case jBalance:
			s.balances[e.addr] = e.prevU64
		case jNonce:
			s.nonces[e.addr] = e.prevU64
		case jStorage:
			slot := s.storage[e.addr]
			if e.existed {
				if slot == nil {
					slot = make(map[string][]byte)
					s.storage[e.addr] = slot
				}
				slot[e.key] = e.prevBlob
			} else if slot != nil {
				delete(slot, e.key)
			}
		}
	}
	s.mu.Unlock()
	s.journal = s.journal[:snap]
}

// Commit discards undo information, making all mutations permanent.
func (s *State) Commit() { s.journal = s.journal[:0] }

// Root computes a deterministic digest of the entire world state. It is
// recomputed per block and stored in the header, so any two replicas can
// cheaply compare their states.
func (s *State) Root() crypto.Digest {
	var h [][]byte

	balances := make(map[identity.Address]uint64)
	s.forEachBalance(func(a identity.Address, v uint64) {
		if v != 0 {
			balances[a] = v
		}
	})
	addrs := make([]identity.Address, 0, len(balances))
	for a := range balances {
		addrs = append(addrs, a)
	}
	sortAddresses(addrs)
	for _, a := range addrs {
		rec := make([]byte, 0, identity.AddressSize+9)
		rec = append(rec, 'B')
		rec = append(rec, a[:]...)
		rec = binary.BigEndian.AppendUint64(rec, balances[a])
		h = append(h, rec)
	}

	nonces := make(map[identity.Address]uint64)
	s.forEachNonce(func(a identity.Address, v uint64) {
		if v != 0 {
			nonces[a] = v
		}
	})
	addrs = addrs[:0]
	for a := range nonces {
		addrs = append(addrs, a)
	}
	sortAddresses(addrs)
	for _, a := range addrs {
		rec := make([]byte, 0, identity.AddressSize+9)
		rec = append(rec, 'N')
		rec = append(rec, a[:]...)
		rec = binary.BigEndian.AppendUint64(rec, nonces[a])
		h = append(h, rec)
	}

	storage := make(map[identity.Address]map[string][]byte)
	s.forEachStorage(func(a identity.Address, slot map[string][]byte) {
		storage[a] = slot
	})
	addrs = addrs[:0]
	for a := range storage {
		addrs = append(addrs, a)
	}
	sortAddresses(addrs)
	for _, a := range addrs {
		slot := storage[a]
		keys := make([]string, 0, len(slot))
		for k := range slot {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rec := make([]byte, 0, identity.AddressSize+len(k)+len(slot[k])+10)
			rec = append(rec, 'S')
			rec = append(rec, a[:]...)
			rec = binary.BigEndian.AppendUint64(rec, uint64(len(k)))
			rec = append(rec, k...)
			rec = append(rec, slot[k]...)
			h = append(h, rec)
		}
	}
	return crypto.MerkleRootOf(h)
}

func sortAddresses(addrs []identity.Address) {
	sort.Slice(addrs, func(i, j int) bool {
		for k := 0; k < identity.AddressSize; k++ {
			if addrs[i][k] != addrs[j][k] {
				return addrs[i][k] < addrs[j][k]
			}
		}
		return false
	})
}
