package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pds2/internal/api"
	"pds2/internal/crypto"
	"pds2/internal/diag"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// runDiag implements `pds2 diag`: the flight-recorder capture tool.
// Pointed at a running node it pulls one diagnostics bundle — metrics
// snapshot and history, logs, traces, goroutine/heap/mutex/block
// profiles, optionally a timed CPU profile — verifies its integrity,
// and prints the artifact index. With -self-test it instead spins up a
// self-hosted market node, drives sealing transfer traffic against
// it, captures a bundle over its real HTTP API and asserts the
// observability contract end to end (all artifacts present, history
// dense enough, CPU samples labeled by component).
func runDiag(args []string) {
	fs := flag.NewFlagSet("pds2 diag", flag.ExitOnError)
	var (
		target     = fs.String("target", "", "base URL of the node to capture (e.g. http://127.0.0.1:8080)")
		outDir     = fs.String("out", "", "bundle directory (default: pds2-diag-<ms> under the OS temp dir)")
		cpuSeconds = fs.Int("cpu-seconds", 0, "also capture a CPU profile of this many seconds (0 skips it)")
		window     = fs.Duration("window", 0, "trim the metrics history to this window (0 takes the full ring)")
		component  = fs.String("component", "", "filter the logs artifact to one component")
		jsonOut    = fs.Bool("json", false, "print the bundle manifest as JSON instead of the table")
		selfTest   = fs.Bool("self-test", false, "spin up a node, capture a bundle from it and verify the observability contract")
	)
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}

	if *selfTest {
		runDiagSelfTest(*outDir)
		return
	}
	if *target == "" {
		fatalf("diag: -target URL required (or -self-test)")
	}

	opts := diag.Options{
		OutDir:       *outDir,
		CPUSeconds:   *cpuSeconds,
		Window:       *window,
		LogComponent: *component,
	}
	timeout := 30*time.Second + time.Duration(*cpuSeconds)*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	dir, man, err := diag.CaptureRemote(ctx, api.NewClient(*target), opts)
	if err != nil {
		fatalf("diag: capture: %v", err)
	}
	if _, err := diag.Verify(dir); err != nil {
		fatalf("diag: bundle failed verification: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(man); err != nil {
			fatalf("diag: encode manifest: %v", err)
		}
		return
	}
	printManifest(dir, man)
	if failed := man.Failed(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "pds2: diag: %d artifact(s) unavailable on this node: %v\n", len(failed), failed)
	}
}

// printManifest renders the artifact index the way operators read it:
// what made it into the bundle, how big, and what didn't and why.
func printManifest(dir string, man diag.Manifest) {
	fmt.Printf("bundle   %s\n", dir)
	fmt.Printf("source   %s\n", man.Source)
	if man.Node != "" {
		fmt.Printf("node     %s\n", man.Node)
	}
	if man.Build.GitCommit != "" {
		dirty := ""
		if man.Build.GitDirty {
			dirty = " (dirty)"
		}
		fmt.Printf("commit   %s%s\n", man.Build.GitCommit, dirty)
	}
	fmt.Printf("go       %s %s/%s\n", man.Build.GoVersion, man.Build.OS, man.Build.Arch)
	fmt.Println("artifacts:")
	for _, a := range man.Artifacts {
		if a.Err != "" {
			fmt.Printf("  %-16s FAILED: %s\n", a.Name, a.Err)
			continue
		}
		fmt.Printf("  %-16s %8d bytes  %s\n", a.Name, a.Bytes, a.File)
	}
}

// Self-test tuning. The history interval and window match the
// acceptance contract (>= 10 samples of ledger.mempool.depth across a
// 5s window); warmup must exceed window*minHistorySamples/capacity so
// the ring is dense enough by capture time.
const (
	selfTestHistoryInterval = 250 * time.Millisecond
	selfTestWindow          = 5 * time.Second
	selfTestWarmup          = 3 * time.Second
	selfTestCPUSeconds      = 2
	minHistorySamples       = 10
)

// runDiagSelfTest is the CI teeth for the whole observability stack:
// it hosts a real market node behind the real HTTP API with pprof,
// history and the runtime sampler on, drives transfer traffic at it,
// captures a bundle remotely and fails loudly unless the bundle proves
// (a) every artifact captured and verifies, (b) the metrics history
// carries a dense mempool-depth series, (c) CPU samples from block
// sealing are attributable by component label, and (d) the runtime
// sampler populated its gauges.
func runDiagSelfTest(outDir string) {
	telemetry.Default().Reset()
	telemetry.Enable()
	telemetry.SetNode("diag-selftest")
	telemetry.EnableHistory(selfTestHistoryInterval, telemetry.DefaultHistoryCapacity)
	defer telemetry.DisableHistory()
	sampler := telemetry.StartRuntimeSampler(telemetry.Default(), 500*time.Millisecond)
	defer sampler.Stop()
	telemetry.SetProfileRates(100, 10_000) // mutex + block profiles have content
	defer telemetry.SetProfileRates(0, 0)

	// Fund enough distinct senders that every sealed block carries a
	// full batch of transfers.
	const senders = 64
	ids := make([]*identity.Identity, senders)
	alloc := make(map[identity.Address]uint64, senders)
	for i := range ids {
		ids[i] = identity.New(fmt.Sprintf("sender-%d", i), crypto.NewDRBGFromUint64(uint64(i+1), "diag-selftest"))
		alloc[ids[i].Address()] = 1 << 40
	}
	m, err := market.New(market.Config{
		Seed:         7,
		GenesisAlloc: alloc,
	})
	if err != nil {
		fatalf("diag self-test: market: %v", err)
	}

	apiSrv := api.NewServer(m, true)
	apiSrv.SetPprof(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("diag self-test: listen: %v", err)
	}
	httpSrv := &http.Server{Handler: apiSrv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()

	// Traffic driver: each round submits one transfer per sender and
	// seals, so every block is a 64-transfer batch. It keeps sealing
	// through the CPU-profile capture so seal samples land.
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, id := range ids {
				if err := m.Submit(m.SignedTx(id, ids[(i+1)%senders].Address(), 1, nil)); err != nil {
					fmt.Fprintf(os.Stderr, "pds2: diag self-test: submit: %v\n", err)
				}
			}
			if _, err := m.SealBlockAt(m.Timestamp() + 1); err != nil {
				fmt.Fprintf(os.Stderr, "pds2: diag self-test: seal: %v\n", err)
			}
		}
	}()

	time.Sleep(selfTestWarmup) // let the history ring fill

	ephemeral := outDir == ""
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir, man, err := diag.CaptureRemote(ctx, api.NewClient(baseURL), diag.Options{
		OutDir:     outDir,
		CPUSeconds: selfTestCPUSeconds,
		Window:     selfTestWindow,
	})
	close(stop)
	<-driverDone
	if err != nil {
		fatalf("diag self-test: capture: %v", err)
	}

	if failed := man.Failed(); len(failed) > 0 {
		fatalf("diag self-test: artifacts failed against a fully enabled node: %v", failed)
	}
	if _, err := diag.Verify(dir); err != nil {
		fatalf("diag self-test: bundle verification: %v", err)
	}
	histSamples, err := checkHistoryDensity(dir)
	if err != nil {
		fatalf("diag self-test: %v", err)
	}
	if err := checkRuntimeGauges(dir); err != nil {
		fatalf("diag self-test: %v", err)
	}
	if err := checkCPUProfileLabels(dir); err != nil {
		fatalf("diag self-test: %v", err)
	}

	fmt.Printf("diag self-test ok: %d artifacts verified, %d history samples of ledger.mempool.depth in %s, cpu profile labeled by component (bundle: %s)\n",
		len(man.Artifacts), histSamples, selfTestWindow, dir)
	if ephemeral {
		_ = os.RemoveAll(dir)
	}
}

// checkHistoryDensity asserts the bundle's metrics history carries at
// least minHistorySamples points of ledger.mempool.depth — the
// acceptance bar for "the history ring was actually sampling while the
// node ran".
func checkHistoryDensity(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "metrics_history.json"))
	if err != nil {
		return 0, err
	}
	var dump telemetry.HistoryDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		return 0, fmt.Errorf("metrics_history.json: %w", err)
	}
	series := dump.Series("ledger.mempool.depth")
	if len(series) < minHistorySamples {
		return len(series), fmt.Errorf("only %d samples of ledger.mempool.depth in a %s window, want >= %d",
			len(series), selfTestWindow, minHistorySamples)
	}
	return len(series), nil
}

// checkRuntimeGauges asserts the runtime sampler fed the registry: a
// bundle without heap or goroutine gauges means the sampler never ran.
func checkRuntimeGauges(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	for _, name := range []string{telemetry.MetricHeapInuse, telemetry.MetricGoroutines, telemetry.MetricGOMAXPROCS} {
		m, ok := snap.Get(name)
		if !ok || m.Value == 0 {
			return fmt.Errorf("runtime gauge %s absent or zero in metrics snapshot", name)
		}
	}
	return nil
}

// checkCPUProfileLabels asserts the CPU profile attributes block
// sealing by component. The pprof wire format is gzipped
// protobuf whose string table holds label keys and values verbatim, so
// a full decode plus substring search proves the labels landed without
// needing a protobuf parser.
func checkCPUProfileLabels(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cpu.pprof: %w", err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu.pprof: %w", err)
	}
	for _, want := range []string{telemetry.LabelComponent, "ledger.seal"} {
		if !bytes.Contains(proto, []byte(want)) {
			return fmt.Errorf("cpu profile carries no %q string — seal samples are unlabeled", want)
		}
	}
	return nil
}
