package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"pds2/internal/api"
	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/token"
)

// Gas attached to generated transactions, as pds2-load attaches it:
// transfers carry their exact intrinsic cost, contract calls headroom
// (blocks pack by intrinsic gas, so headroom costs nothing).
const (
	callGas   = 2_000_000
	deployGas = 5_000_000
)

// bankers is the number of accounts that own the mixed workload's
// contracts (ERC-20 mints, workload lifecycles, datasets). Their
// transactions chain nonces, so several spread the load over lanes.
const bankers = 8

// loadMeasurement is the enclave measurement stamped on generated
// workload specs; lifecycle traffic deploys and lists, nobody executes.
var loadMeasurement = crypto.HashBytes([]byte("pds2/govbench/enclave"))

// op is one pre-built request. Writes carry a signed transaction whose
// (from, nonce) pair identifies it in the blocks the node seals.
type op struct {
	class  string
	write  bool
	method string
	path   string
	body   []byte // nil until the corpus signs the write
	plan   int    // index into corpus.plans for writes
	from   identity.Address
	nonce  uint64
	want   int    // expected HTTP status (202 writes, 200 or 403 reads)
	expect []byte // substring a successful read must contain
}

// txKey identifies a transaction in a block without hashing it.
type txKey struct {
	from  identity.Address
	nonce uint64
}

// corpus is the whole traffic of a run, drawn from the seed before the
// clock starts. ops holds the set-up rounds first (contract deploys and
// registrations that must commit before any phase), then the ops the
// phases consume in order. Writes are signed by range with sign, so a
// run signs only what it can send, always before the phase that sends
// it.
type corpus struct {
	ops    []op
	rounds [][2]int // set-up rounds as [lo, hi) of ops
	first  int      // index of the first phase op
	plans  []plan
}

// chainInfo is what transactions need to know about the node's chain.
// Both values derive from the node seed, so a follower market built
// from the same config yields them without asking the node.
type chainInfo struct {
	registry identity.Address
	qaPub    []byte
}

// plan is an unsigned transaction.
type plan struct {
	from     *identity.Identity
	to       identity.Address
	value    uint64
	nonce    uint64
	gas      uint64
	data     []byte
	envelope bool // wrap in api.TxEnvelope (dataset endpoints)
}

type planner struct {
	wl     workload
	ids    []*identity.Identity
	chain  chainInfo
	rng    *rand.Rand
	nonces map[identity.Address]uint64
	c      *corpus

	tokens   [bankers]identity.Address
	datasets [bankers]crypto.Digest
	unlisted [bankers]identity.Address // deployed workload awaiting its listing
	polSeq   [bankers]int
	banker   int
	sender   int
	senders  []int // transfer senders, in a seeded order
}

// buildCorpus draws n phase ops (plus set-up) from seed alone: the same
// seed, workload and chain always give byte-identical requests.
func buildCorpus(seed uint64, wl workload, ids []*identity.Identity, chain chainInfo, n int) *corpus {
	b := &planner{
		wl:     wl,
		ids:    ids,
		chain:  chain,
		rng:    rand.New(rand.NewPCG(seed, 0x9d5b_6c2e_b3a1_f047)),
		nonces: make(map[identity.Address]uint64),
		c:      &corpus{ops: make([]op, 0, 4*bankers+n)},
	}
	first := 0
	if wl.mix.needsBankers() {
		first = bankers
	}
	b.senders = b.rng.Perm(len(ids) - first)
	for i := range b.senders {
		b.senders[i] += first
	}
	if wl.mix.needsBankers() {
		b.setupRounds()
	}
	c := b.c
	c.first = len(c.ops)
	for range n {
		c.ops = append(c.ops, op{})
		b.next(&c.ops[len(c.ops)-1])
	}
	return c
}

// setupRounds deploys each banker's ERC-20, registers it as a consumer
// and registers its base dataset; the second round attaches the base
// dataset's policy, which needs the registration committed.
func (b *planner) setupRounds() {
	c := b.c
	lo := len(c.ops)
	for k := range bankers {
		id := b.ids[k]
		b.tokens[k] = contract.ContractAddress(id.Address(), b.nonces[id.Address()])
		b.tx(b.push(), "setup", id, identity.ZeroAddress, 0, deployGas,
			contract.DeployData(token.ERC20CodeName, token.ERC20InitArgs("Bench", "BNCH", 0)), false)
		b.tx(b.push(), "setup", id, b.chain.registry, 0, callGas,
			market.RegisterActorData(identity.RoleConsumer), false)
		b.datasets[k] = crypto.HashString(fmt.Sprintf("govbench/banker/%d/base", k))
		b.tx(b.push(), "setup", id, b.chain.registry, 0, callGas,
			market.RegisterDataData(b.datasets[k], crypto.HashString("govbench/meta")), false)
	}
	c.rounds = append(c.rounds, [2]int{lo, len(c.ops)})
	lo = len(c.ops)
	for k := range bankers {
		pol := &policy.Policy{AllowedClasses: []string{market.DefaultComputationClass}}
		b.tx(b.push(), "setup", b.ids[k], b.chain.registry, 0, callGas,
			market.SetPolicyData(b.datasets[k], pol), false)
	}
	c.rounds = append(c.rounds, [2]int{lo, len(c.ops)})
}

// push appends an empty op and returns it for filling.
func (b *planner) push() *op {
	b.c.ops = append(b.c.ops, op{})
	return &b.c.ops[len(b.c.ops)-1]
}

// tx plans one signed write; the op's body is filled in by sign.
func (b *planner) tx(o *op, class string, from *identity.Identity, to identity.Address, value, gas uint64, data []byte, envelope bool) {
	nonce := b.nonces[from.Address()]
	b.nonces[from.Address()] = nonce + 1
	*o = op{class: class, write: true, method: "POST", path: "/v1/transactions",
		plan: len(b.c.plans), from: from.Address(), nonce: nonce, want: 202}
	b.c.plans = append(b.c.plans, plan{from: from, to: to, value: value, nonce: nonce, gas: gas, data: data, envelope: envelope})
}

func (b *planner) randomAddr() identity.Address {
	return b.ids[b.rng.IntN(len(b.ids))].Address()
}

// next draws one op from the workload's mix.
func (b *planner) next(o *op) {
	m := b.wl.mix
	n := b.rng.IntN(m.total())
	switch {
	case n < m.Transfers:
		from := b.ids[b.senders[b.sender%len(b.senders)]]
		b.sender++
		to := b.randomAddr()
		if to == from.Address() {
			to = b.ids[0].Address()
		}
		b.tx(o, "transfer", from, to, 1, ledger.TxBaseGas, nil, false)
	case n < m.Transfers+m.Mints:
		k := b.nextBanker()
		b.tx(o, "mint", b.ids[k], b.tokens[k], 0, callGas, token.ERC20MintData(b.randomAddr(), 1), false)
	case n < m.Transfers+m.Mints+m.Reads:
		addr := b.randomAddr()
		*o = op{class: "read", method: "GET", path: "/v1/accounts/" + addr.Hex(), want: 200, expect: []byte(addr.Hex())}
	case n < m.Transfers+m.Mints+m.Reads+m.Lifecycle:
		b.lifecycle(o, b.nextBanker())
	default:
		b.policyOp(o, b.nextBanker())
	}
}

func (b *planner) nextBanker() int {
	k := b.banker % bankers
	b.banker++
	return k
}

// lifecycle alternates a banker between deploying a workload contract
// and listing it in the registry. The deploy address is known from the
// banker's nonce, so the listing needs no receipt. The expiry lies far
// ahead: a pre-signed corpus cannot know heights, so workloads are
// never cancelled.
func (b *planner) lifecycle(o *op, k int) {
	id := b.ids[k]
	if addr := b.unlisted[k]; !addr.IsZero() {
		b.unlisted[k] = identity.ZeroAddress
		b.tx(o, "lifecycle", id, b.chain.registry, 0, callGas, market.RegisterWorkloadData(addr), false)
		return
	}
	spec := &market.Spec{
		Predicate:      "class=govbench",
		MinProviders:   1,
		MinItems:       1,
		ExpiryHeight:   1 << 40,
		ExecutorFeeBps: 1000,
		Measurement:    loadMeasurement,
		QAPub:          b.chain.qaPub,
		Params:         []byte("noop"),
	}
	b.unlisted[k] = contract.ContractAddress(id.Address(), b.nonces[id.Address()])
	b.tx(o, "lifecycle", id, identity.ZeroAddress, 10, deployGas,
		contract.DeployData(market.WorkloadCodeName, spec.Encode()), false)
}

// policyOp rotates a banker through the usage-control surface: register
// a fresh dataset, change its base dataset's policy, and check the
// policy (a forbidden class answers 403, which is the expected result).
func (b *planner) policyOp(o *op, k int) {
	id := b.ids[k]
	seq := b.polSeq[k]
	b.polSeq[k]++
	switch seq % 3 {
	case 0:
		dataID := crypto.HashString(fmt.Sprintf("govbench/banker/%d/data/%d", k, seq))
		b.tx(o, "policy", id, b.chain.registry, 0, callGas,
			market.RegisterDataData(dataID, crypto.HashString("govbench/meta")), true)
		o.path = "/v1/datasets"
	case 1:
		pol := &policy.Policy{
			AllowedClasses: []string{market.DefaultComputationClass},
			MinAggregation: uint64(1 + seq%4),
		}
		b.tx(o, "policy", id, b.chain.registry, 0, callGas, market.SetPolicyData(b.datasets[k], pol), true)
		o.method, o.path = "PUT", "/v1/datasets/"+b.datasets[k].Hex()+"/policy"
	default:
		class, want := market.DefaultComputationClass, 200
		if seq%2 == 0 {
			class, want = "govbench-forbidden", 403
		}
		*o = op{class: "policy-check", method: "GET", want: want,
			path: "/v1/datasets/" + b.datasets[k].Hex() + "/check?class=" + class + "&agg=4"}
	}
}

// sign signs and encodes the unsigned writes among ops[lo:hi] over two
// goroutines. Ed25519 signatures are deterministic, so the bytes do not
// depend on the split or on when a range is signed.
func (c *corpus) sign(lo, hi int) {
	const workers = 2
	hi = min(hi, len(c.ops))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := lo + w; i < hi; i += workers {
				o := &c.ops[i]
				if !o.write || o.body != nil {
					continue
				}
				p := c.plans[o.plan]
				tx := ledger.SignTx(p.from, p.to, p.value, p.nonce, p.gas, p.data)
				var v any = tx
				if p.envelope {
					v = api.TxEnvelope{Tx: tx}
				}
				body, err := json.Marshal(v)
				if err != nil {
					panic(err) // a Transaction always marshals
				}
				o.body = body
			}
		}(w)
	}
	wg.Wait()
}

// digest signs the whole corpus and hashes every request in order.
func (c *corpus) digest() [32]byte {
	c.sign(0, len(c.ops))
	h := sha256.New()
	for i := range c.ops {
		o := &c.ops[i]
		fmt.Fprintf(h, "%s %s %d %d\n", o.method, o.path, o.want, len(o.body))
		h.Write(o.body)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
