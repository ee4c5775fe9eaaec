// Command pds2-node runs a PDS² governance node: a proof-of-authority
// chain with the platform contracts deployed, served over the HTTP API
// of internal/api. Blocks are sealed automatically at a fixed interval
// when transactions are pending.
//
// Usage:
//
//	pds2-node [-listen :8547] [-seed 1] [-block-ms 500] [-fund addr:amount,...] [-mempool 100000]
//	          [-log-level info,ledger=debug] [-node-id node-0] [-drain-ms 500]
//	          [-data-dir /var/lib/pds2] [-snapshot-every 1000]
//	          [-load-accounts 100000] [-load-seed 1] [-load-fund 1000000] [-block-gas 0]
//	          [-pprof] [-mutex-profile-fraction 0] [-block-profile-rate-ns 0]
//	          [-history-ms 250] [-history-cap 1200]
//
// Observability: with -telemetry (the default) the node additionally
// runs the Go runtime sampler (heap, GC pauses, goroutines, scheduler
// latency gauges) and a bounded metrics-history ring sampled every
// -history-ms, served at GET /v1/metrics/history?window=30s. -pprof
// mounts net/http/pprof at /debug/pprof/ — off by default because
// profile endpoints leak internals; `pds2 diag -target <url>` captures
// a full flight-recorder bundle from these endpoints in one shot.
// -mutex-profile-fraction and -block-profile-rate-ns enable the
// contention profiles (both off by default; they tax hot paths).
//
// -load-accounts funds the deterministic pds2-load population at
// genesis (same seed and count on both sides, no key material crosses
// the wire), so an external pds2-load run finds its accounts funded.
//
// With -data-dir the node is durable: every sealed block is appended
// (fsynced) to a segmented log under the directory, a state snapshot is
// written every -snapshot-every blocks, and a restart resumes from
// "snapshot + tail-of-log" instead of genesis — killed mid-run, the node
// reopens with at most the last torn append truncated away. The store
// surfaces as the "chainstore" component in /healthz and /readyz.
//
// Structured logs are retained in a bounded ring served at GET /v1/logs
// and mirrored to stderr; -log-level takes a default level plus
// per-component overrides (debug, info, warn, error, off). Component
// health is served at GET /healthz (liveness: 503 only when unhealthy)
// and GET /readyz (readiness: 200 only when fully healthy).
//
// On SIGINT/SIGTERM the node shuts down gracefully: /readyz starts
// answering 503 so load balancers stop routing here, the node keeps
// serving for -drain-ms, then in-flight requests are allowed to finish
// before the listener closes.
//
// Try it:
//
//	pds2-node &
//	curl -s localhost:8547/v1/status
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pds2/internal/api"
	"pds2/internal/chainstore"
	"pds2/internal/identity"
	"pds2/internal/loadgen"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

func main() {
	var (
		listen    = flag.String("listen", ":8547", "HTTP listen address")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		blockMS   = flag.Int("block-ms", 500, "auto-seal interval in milliseconds (0 disables)")
		fund      = flag.String("fund", "", "comma-separated genesis allocations addr:amount")
		pool      = flag.Int("mempool", 0, "mempool capacity in transactions (0 selects the default)")
		tel       = flag.Bool("telemetry", true, "collect metrics and traces (served at /v1/metrics and /v1/trace)")
		logSpec   = flag.String("log-level", "info", "structured-log spec: default level plus component overrides, e.g. info,ledger=debug,gossip=off")
		nodeID    = flag.String("node-id", "", "node identity stamped on spans and log records (defaults to the listen address)")
		drainMS   = flag.Int("drain-ms", 500, "how long to keep serving after /readyz goes down, before shutdown")
		dataDir   = flag.String("data-dir", "", "durable chain store directory (empty runs in memory)")
		snapEvery = flag.Uint64("snapshot-every", 1000, "write a state snapshot every N blocks (with -data-dir; 0 disables)")
		loadN     = flag.Int("load-accounts", 0, "fund this many deterministic pds2-load accounts at genesis")
		loadSeed  = flag.Uint64("load-seed", 1, "seed of the pds2-load population funded by -load-accounts")
		loadFund  = flag.Uint64("load-fund", 1_000_000, "genesis balance per -load-accounts account")
		blockGas  = flag.Uint64("block-gas", 0, "per-block gas limit (0 selects the chain default)")
		pprofOn   = flag.Bool("pprof", false, "serve runtime profiles at /debug/pprof/ (goroutine, heap, mutex, block, cpu)")
		mutexFrac = flag.Int("mutex-profile-fraction", 0, "mutex contention sampling rate 1/n (0 disables, 1 records all)")
		blockRate = flag.Int("block-profile-rate-ns", 0, "block profile threshold in nanoseconds (0 disables, 1 records all)")
		histMS    = flag.Int("history-ms", 250, "metrics history sampling interval in milliseconds (0 disables /v1/metrics/history)")
		histCap   = flag.Int("history-cap", telemetry.DefaultHistoryCapacity, "metrics history ring capacity in samples")
	)
	flag.Parse()
	if *tel {
		telemetry.Enable()
	}
	if err := telemetry.SetLogSpec(*logSpec); err != nil {
		fatalf("bad -log-level: %v", err)
	}
	telemetry.DefaultLog().SetOutput(os.Stderr)
	if *nodeID == "" {
		*nodeID = listenHost(*listen)
	}
	telemetry.SetNode(*nodeID)
	telemetry.SetProfileRates(*mutexFrac, *blockRate)
	if *tel {
		if *histMS > 0 {
			telemetry.EnableHistory(time.Duration(*histMS)*time.Millisecond, *histCap)
			defer telemetry.DisableHistory()
		}
		sampler := telemetry.StartRuntimeSampler(telemetry.Default(), 0)
		defer sampler.Stop()
	}

	alloc := map[identity.Address]uint64{}
	if *fund != "" {
		for _, part := range strings.Split(*fund, ",") {
			addrHex, amountStr, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				fatalf("bad -fund entry %q (want addr:amount)", part)
			}
			addr, err := identity.AddressFromHex(addrHex)
			if err != nil {
				fatalf("bad -fund address: %v", err)
			}
			amount, err := strconv.ParseUint(amountStr, 10, 64)
			if err != nil {
				fatalf("bad -fund amount: %v", err)
			}
			alloc[addr] = amount
		}
	}

	if *loadN > 0 {
		log.Printf("funding %d pds2-load accounts (seed %d, %d each)", *loadN, *loadSeed, *loadFund)
		for addr, amount := range loadgen.GenesisAlloc(*loadSeed, *loadN, *loadFund) {
			alloc[addr] = amount
		}
	}

	var store *chainstore.Store
	if *dataDir != "" {
		var err error
		store, err = chainstore.Open(*dataDir, nil)
		if err != nil {
			fatalf("open chain store: %v", err)
		}
		if n := store.RecoveredBytes(); n > 0 {
			log.Printf("chain store: recovered from torn write (%d bytes truncated)", n)
		}
	}
	m, err := market.Open(market.Config{Seed: *seed, GenesisAlloc: alloc, MempoolSize: *pool, BlockGasLimit: *blockGas}, store)
	if err != nil {
		fatalf("start market: %v", err)
	}
	if store != nil {
		log.Printf("chain store %s: resumed at height %d (base %d)", *dataDir, m.Height(), m.Chain.Base())
		store.AttachSnapshotting(m.Chain, *snapEvery)
	}
	srv := api.NewServer(m, true)
	srv.SetPprof(*pprofOn)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *blockMS > 0 {
		go func() {
			client := api.NewClient("http://" + listenHost(*listen))
			tick := time.NewTicker(time.Duration(*blockMS) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				// Seal through the API so locking is uniform.
				if st, err := client.Status(ctx); err == nil && st.Pending > 0 {
					if _, err := client.Seal(ctx); err != nil && ctx.Err() == nil {
						log.Printf("auto-seal: %v", err)
					}
				}
			}
		}()
	}

	// The write timeout caps how long a timed CPU profile can run
	// (/debug/pprof/profile?seconds=N streams after N seconds), so give
	// pprof-enabled nodes room for meaningful captures.
	writeTimeout := 30 * time.Second
	if *pprofOn {
		writeTimeout = 2 * time.Minute
	}
	hs := &http.Server{
		Addr:         *listen,
		Handler:      srv,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: writeTimeout,
		IdleTimeout:  2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	log.Printf("pds2-node listening on %s (registry %s, deeds %s)",
		*listen, m.Registry.Short(), m.Deeds.Short())

	select {
	case err := <-errCh:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: fail readiness first so load balancers stop
	// routing here, keep serving while they notice, then let in-flight
	// requests finish before the listener closes.
	log.Printf("pds2-node draining (%dms) before shutdown", *drainMS)
	srv.SetDraining(true)
	time.Sleep(time.Duration(*drainMS) * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("close chain store: %v", err)
		}
	}
	log.Printf("pds2-node stopped at height %d", m.Height())
}

// listenHost normalizes ":8547" to "localhost:8547" for the self-client.
func listenHost(listen string) string {
	if strings.HasPrefix(listen, ":") {
		return "localhost" + listen
	}
	return listen
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pds2-node: "+format+"\n", args...)
	os.Exit(1)
}
