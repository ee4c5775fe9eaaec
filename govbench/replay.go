package main

import (
	"encoding/json"
	"fmt"
	"time"

	"pds2/internal/api"
	"pds2/internal/chainstore"
	"pds2/internal/crypto"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// layerCost is what the follower measured replaying the node's blocks:
// the public call of each layer, timed on the pre-state of every block.
type layerCost struct {
	blocks, txs                                                 int
	decode, hash, verify, mempoolAdd, pack, exec, root, import_ time.Duration
	appendMS, sealMS                                            []float64 // per block
	headRoot                                                    crypto.Digest
}

// replay imports the node's blocks into follower and returns the head
// state root it reached. It fails on any block the follower rejects or
// any transaction that did not succeed: the workloads send none that
// should revert. With timed set it also measures each layer on each
// block's pre-state, decoding each transaction from the wire bytes the
// generator sent, and appends the blocks to a fresh store in storeDir.
func replay(follower *market.Market, blocks []*ledger.Block, d *generator, timed bool, storeDir string) (*layerCost, error) {
	lc := &layerCost{}
	var store *chainstore.Store
	if timed {
		var err error
		if store, err = chainstore.Open(storeDir, nil); err != nil {
			return nil, fmt.Errorf("open replay store: %w", err)
		}
		defer store.Close()
	}
	chain := follower.Chain
	for _, b := range blocks {
		if timed {
			if err := lc.time(chain, b, d, store); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		if err := chain.ImportBlock(b); err != nil {
			return nil, fmt.Errorf("follower rejected block %d: %w", b.Header.Height, err)
		}
		lc.import_ += time.Since(t)
		for _, tx := range b.Txs {
			r, ok := chain.Receipt(tx.Hash())
			if !ok || !r.Succeeded() {
				return nil, fmt.Errorf("tx %s (nonce %d) in block %d did not succeed", tx.From.Short(), tx.Nonce, b.Header.Height)
			}
		}
		lc.blocks++
		lc.txs += len(b.Txs)
	}
	lc.headRoot = chain.Head().Header.StateRoot
	if root := chain.State().Root(); root != lc.headRoot {
		return nil, fmt.Errorf("follower state root %s differs from its head header %s", root.Short(), lc.headRoot.Short())
	}
	return lc, nil
}

// time runs each layer's public call for block b on the chain's
// current (pre-block) state, leaving the chain unchanged.
func (lc *layerCost) time(chain *ledger.Chain, b *ledger.Block, d *generator, store *chainstore.Store) error {
	t := time.Now()
	for _, tx := range b.Txs {
		i, ok := d.byKey[txKey{tx.From, tx.Nonce}]
		if !ok {
			return fmt.Errorf("block %d holds a transaction the corpus never sent", b.Header.Height)
		}
		o := &d.ops[i]
		var err error
		if o.path == "/v1/transactions" {
			err = json.Unmarshal(o.body, new(ledger.Transaction))
		} else {
			err = json.Unmarshal(o.body, new(api.TxEnvelope))
		}
		if err != nil {
			return fmt.Errorf("decode wire bytes: %w", err)
		}
	}
	lc.decode += time.Since(t)

	t = time.Now()
	for _, tx := range b.Txs {
		tx.Hash()
	}
	lc.hash += time.Since(t)

	t = time.Now()
	for _, tx := range b.Txs {
		if err := tx.VerifyBasic(); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	verify := time.Since(t)
	lc.verify += verify

	pool := ledger.NewMempool(0)
	t = time.Now()
	for _, tx := range b.Txs {
		if err := pool.Add(tx); err != nil {
			return fmt.Errorf("mempool add: %w", err)
		}
	}
	lc.mempoolAdd += max(0, time.Since(t)-verify)

	t = time.Now()
	batch := pool.NextBatch(chain.State(), 10_000, chain.GasLimit())
	pack := time.Since(t)
	lc.pack += pack
	if len(batch) != len(b.Txs) {
		return fmt.Errorf("block %d: mempool packed %d of its %d txs", b.Header.Height, len(batch), len(b.Txs))
	}

	t = time.Now()
	chain.State().Root()
	root := time.Since(t)
	lc.root += root

	t = time.Now()
	if _, _, err := chain.ExecuteBatch(b.Txs); err != nil {
		return fmt.Errorf("execute block %d: %w", b.Header.Height, err)
	}
	exec := max(0, time.Since(t)-root)
	lc.exec += exec

	t = time.Now()
	if err := store.Append(b); err != nil {
		return fmt.Errorf("append block %d: %w", b.Header.Height, err)
	}
	lc.appendMS = append(lc.appendMS, ms(time.Since(t)))
	lc.sealMS = append(lc.sealMS, ms(verify+pack+exec+root))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
