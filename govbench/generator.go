package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pds2/internal/identity"
)

// lanes is the number of HTTP connections the generator holds: one per
// core of the 2-core reference box, never more than the host's cores.
var lanes = min(2, runtime.NumCPU())

// pollEvery is how often an idle lane asks for the next block. Commit
// times are block-granular and at most this late.
const pollEvery = 10 * time.Millisecond

// rec is the timeline of one op, in nanoseconds since the generator
// started; 0 means "not yet". Lanes write due/send/resp/status, the
// block poller writes commit, and the orchestrator reads them all, so
// every field is atomic.
type rec struct {
	due, send, resp, commit atomic.Int64
	lag                     atomic.Int64 // send minus max(due, lane free): the generator's own lateness
	status                  atomic.Int32 // HTTP status; -1 transport error, -2 wrong answer
}

// phase is the slice of ops being offered. An open-loop phase (rate >
// 0) makes op k due at start + k/rate; a closed loop (rate 0) makes
// every op due at once and stops handing ops out at stop.
type phase struct {
	lo, next, hi int
	start, stop  int64
	rate         float64
}

type blockObs struct {
	height uint64
	at     int64         // when a lane first saw the block
	cpu    time.Duration // node CPU read at that moment
	raw    []byte
}

// generator runs the lanes: each owns one keep-alive connection and
// alternates between sending due ops and polling for the next block.
type generator struct {
	base    string
	nodePID int
	ops     []op
	recs    []rec
	byKey   map[txKey]int
	clients []*http.Client
	wake    []chan struct{}
	t0      time.Time
	// found carries fetched blocks from the lanes to the decoder, which
	// marks their transactions committed; decoding off the lanes keeps
	// them free to send. The buffer exceeds the blocks a run seals (two
	// a second), so a lane never waits on the decoder.
	found chan blockObs

	cancel   context.CancelFunc
	lanesWG  sync.WaitGroup
	decodeWG sync.WaitGroup
	finished sync.Once

	// loseAck, when set, makes the lane acknowledge the chosen writes
	// itself instead of sending them: an injected lost acknowledgement
	// the output checks must catch.
	loseAck func(i int) bool

	mu       sync.Mutex
	ph       phase
	inflight int
	pollDue  int64
	pollBusy bool
	height   uint64
	blocks   []blockObs
	dupes    int
	foreign  int
	pollErr  error
}

func newGenerator(base string, nodePID int, ops []op, height uint64) *generator {
	d := &generator{
		base:    base,
		nodePID: nodePID,
		ops:     ops,
		recs:    make([]rec, len(ops)),
		byKey:   make(map[txKey]int, len(ops)),
		height:  height,
		found:   make(chan blockObs, 1024),
	}
	for i := range ops {
		if ops[i].write {
			d.byKey[txKey{ops[i].from, ops[i].nonce}] = i
		}
	}
	for range lanes {
		d.clients = append(d.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
		d.wake = append(d.wake, make(chan struct{}, 1))
	}
	return d
}

func (d *generator) now() int64 { return int64(time.Since(d.t0)) }

// start launches the lanes and the block decoder. The lanes run until
// stop, the decoder until finish.
func (d *generator) start(ctx context.Context) {
	ctx, d.cancel = context.WithCancel(ctx)
	d.t0 = time.Now()
	d.ph = phase{start: 1}
	d.decodeWG.Add(1)
	go func() {
		defer d.decodeWG.Done()
		for b := range d.found {
			d.decode(b)
		}
	}()
	for i := range d.clients {
		d.lanesWG.Add(1)
		go func(i int) {
			defer d.lanesWG.Done()
			d.lane(ctx, i)
		}(i)
	}
}

// stop stops the lanes and returns once they have; the connections
// stay open for the orchestrator.
func (d *generator) stop() {
	d.cancel()
	d.lanesWG.Wait()
}

// finish stops the lanes and returns once the decoder has handled
// every fetched block.
func (d *generator) finish() {
	d.stop()
	d.finished.Do(func() { close(d.found) })
	d.decodeWG.Wait()
}

func (d *generator) closeIdle() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

type job int

const (
	jobNone job = -2
	jobPoll job = -1
)

// claim picks the lane's next job: an overdue block poll first, else a
// due op. With nothing due it returns jobNone and when to look again.
func (d *generator) claim() (job, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	if !d.pollBusy && now >= d.pollDue {
		d.pollBusy = true
		return jobPoll, 0
	}
	wake := now + int64(time.Second)
	if !d.pollBusy {
		wake = d.pollDue
	}
	p := &d.ph
	if p.rate == 0 && p.next < p.hi && now >= p.stop {
		p.hi = p.next // closed loop over: hand out nothing more
	}
	if p.next < p.hi {
		due := now
		if p.rate > 0 {
			due = p.start + int64(float64(p.next-p.lo)*1e9/p.rate)
		}
		if due <= now {
			i := p.next
			p.next++
			d.inflight++
			d.recs[i].due.Store(max(due, 1))
			return job(i), 0
		}
		wake = min(wake, due)
	}
	return jobNone, wake
}

func (d *generator) lane(ctx context.Context, id int) {
	hc := d.clients[id]
	free := d.now()
	for {
		j, wakeAt := d.claim()
		switch j {
		case jobNone:
			t := time.NewTimer(time.Duration(wakeAt - d.now()))
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-d.wake[id]:
				t.Stop()
			case <-t.C:
			}
			continue
		case jobPoll:
			d.poll(ctx, hc)
		default:
			d.send(ctx, hc, int(j), free)
		}
		if ctx.Err() != nil {
			return
		}
		free = d.now()
	}
}

func (d *generator) send(ctx context.Context, hc *http.Client, i int, free int64) {
	o, r := &d.ops[i], &d.recs[i]
	defer func() {
		d.mu.Lock()
		d.inflight--
		d.mu.Unlock()
	}()
	now := d.now()
	r.lag.Store(now - max(r.due.Load(), free))
	r.send.Store(now)
	if o.write && d.loseAck != nil && d.loseAck(i) {
		r.resp.Store(d.now())
		r.status.Store(int32(o.want))
		return
	}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	status := -1
	req, err := http.NewRequestWithContext(ctx, o.method, d.base+o.path, body)
	if err == nil {
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var resp *http.Response
		if resp, err = hc.Do(req); err == nil {
			var rb []byte
			rb, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
			case resp.StatusCode == o.want && o.expect != nil && !bytes.Contains(rb, o.expect):
				status = -2
			default:
				status = resp.StatusCode
			}
		}
	}
	r.resp.Store(d.now())
	r.status.Store(int32(status))
}

// blockTxs is the part of a block the poller needs: which (from,
// nonce) pairs it commits.
type blockTxs struct {
	Txs []struct {
		From  identity.Address `json:"from"`
		Nonce uint64           `json:"nonce"`
	} `json:"txs"`
}

// poll asks for the block after the last one seen; a hit marks its
// transactions committed and polls again at once.
func (d *generator) poll(ctx context.Context, hc *http.Client) {
	d.mu.Lock()
	h := d.height + 1
	d.mu.Unlock()
	next := d.now() + int64(pollEvery)
	defer func() {
		d.mu.Lock()
		d.pollDue, d.pollBusy = next, false
		d.mu.Unlock()
	}()
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/v1/blocks/"+strconv.FormatUint(h, 10), nil)
	if err != nil {
		d.setPollErr(err)
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			d.setPollErr(err)
		}
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	at := d.now()
	switch {
	case err != nil:
		d.setPollErr(err)
		return
	case resp.StatusCode == http.StatusNotFound:
		return
	case resp.StatusCode != http.StatusOK:
		d.setPollErr(fmt.Errorf("GET block %d: HTTP %d", h, resp.StatusCode))
		return
	}
	cpu, err := procCPU(d.nodePID)
	if err != nil {
		d.setPollErr(fmt.Errorf("read node CPU: %w", err))
		return
	}
	d.mu.Lock()
	d.height = h
	d.mu.Unlock()
	d.found <- blockObs{height: h, at: at, cpu: cpu, raw: raw}
	next = at // there may be more blocks waiting
}

// decode marks the transactions of a fetched block committed at the
// time the lane received it.
func (d *generator) decode(b blockObs) {
	var bt blockTxs
	if err := json.Unmarshal(b.raw, &bt); err != nil {
		d.setPollErr(fmt.Errorf("decode block %d: %w", b.height, err))
		return
	}
	dupes, foreign := 0, 0
	for _, tx := range bt.Txs {
		i, ok := d.byKey[txKey{tx.From, tx.Nonce}]
		switch {
		case !ok:
			foreign++
		case !d.recs[i].commit.CompareAndSwap(0, b.at):
			dupes++
		}
	}
	d.mu.Lock()
	d.blocks = append(d.blocks, b)
	d.dupes += dupes
	d.foreign += foreign
	d.mu.Unlock()
}

func (d *generator) setPollErr(err error) {
	d.mu.Lock()
	if d.pollErr == nil {
		d.pollErr = err
	}
	d.mu.Unlock()
}

// offer runs one phase over ops [lo, lo+n) and returns the index after
// the last op it used, once every op it handed out has been answered.
// rate > 0 offers the n ops open-loop; rate 0 keeps every lane busy for
// dur or until the n ops are used up, whichever comes first.
func (d *generator) offer(ctx context.Context, lo, n int, rate float64, dur time.Duration) (int, error) {
	if lo+n > len(d.ops) {
		return lo, fmt.Errorf("corpus holds %d ops, phase needs %d", len(d.ops), lo+n)
	}
	d.mu.Lock()
	start := d.now() + int64(time.Millisecond)
	d.ph = phase{lo: lo, next: lo, hi: lo + n, start: start, rate: rate}
	if rate == 0 {
		d.ph.stop = start + int64(dur)
	}
	d.mu.Unlock()
	for _, w := range d.wake {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	for {
		d.mu.Lock()
		done := d.ph.next >= d.ph.hi && d.inflight == 0
		next := d.ph.next
		d.mu.Unlock()
		if done {
			return next, nil
		}
		select {
		case <-ctx.Done():
			return next, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// settle waits until every acknowledged write in [lo, hi) has been
// seen in a block, or the timeout passes; it reports which.
func (d *generator) settle(ctx context.Context, lo, hi int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if d.pending(lo, hi) == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// pending counts acknowledged writes in [lo, hi) not yet seen in a block.
func (d *generator) pending(lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		r := &d.recs[i]
		if d.ops[i].write && r.status.Load() == int32(d.ops[i].want) && r.commit.Load() == 0 {
			n++
		}
	}
	return n
}

// snapshotBlocks returns the blocks seen so far.
func (d *generator) snapshotBlocks() []blockObs {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]blockObs(nil), d.blocks...)
}
