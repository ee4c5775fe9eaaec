// Command pds2 runs a complete PDS² marketplace scenario — governance
// chain, storage, providers, TEE executors — through the full workload
// lifecycle and prints a report: final state, model quality, reward
// payouts and the on-chain audit summary.
//
// Usage:
//
//	pds2 [-providers N] [-executors M] [-samples K] [-budget B] [-seed S]
//	pds2 -scenario scenario.json
//	pds2 metrics [-json] [-trace] [scenario flags]
//	pds2 trace [-json] [-chrome file] [-self-test] [scenario flags]
//	pds2 diag -target URL [-out DIR] [-cpu-seconds N] [-window D] [-component X] [-json]
//	pds2 diag -self-test [-out DIR]
//	pds2 compile [-o artifact.bin] [-disasm] [source-file|-]
//
// The metrics subcommand runs the same scenario with telemetry enabled
// and reports the collected metrics (and, with -trace, the span tree)
// instead of the marketplace result. The trace subcommand runs the
// scenario and renders the stitched workload trace as a span tree, raw
// span JSON, or Chrome trace-event JSON loadable in chrome://tracing or
// Perfetto; -self-test instead runs the two-node distributed-tracing
// demo and verifies the stitching invariants, exiting non-zero on
// failure. The diag subcommand captures a flight-recorder diagnostics
// bundle from a running node's HTTP API — metrics snapshot and
// history, logs, traces, runtime profiles, health and build identity,
// indexed by a checksummed manifest — and verifies it; its -self-test
// hosts a node in-process, drives sealing transfer traffic and
// asserts the captured bundle proves the observability contract. The
// compile subcommand is the offline policy toolchain: it compiles
// contract-DSL source to a deployable pds2/bytecode/v1 artifact,
// re-verifies the bytecode against the embedded source, and prints the
// artifact checksum (and, with -disasm, the instruction listing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"pds2/internal/core"
	"pds2/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		runMetrics(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "diag" {
		runDiag(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compile" {
		runCompile(os.Args[2:])
		return
	}
	var (
		scenarioPath = flag.String("scenario", "", "JSON scenario file (overrides the flags below)")
		providers    = flag.Int("providers", 4, "number of data providers")
		executors    = flag.Int("executors", 2, "number of executors")
		samples      = flag.Int("samples", 200, "training examples per provider")
		budget       = flag.Uint64("budget", 100_000, "escrowed reward budget")
		fee          = flag.Uint64("fee", 1_000, "executor fee in basis points")
		seed         = flag.Uint64("seed", 1, "deterministic seed")
		jsonOut      = flag.Bool("json", false, "emit the result as JSON")
		exportPath   = flag.String("export", "", "write the full chain export (for pds2-audit) to this file")
	)
	flag.Parse()

	scenario := core.Scenario{
		Seed:        *seed,
		Providers:   *providers,
		Executors:   *executors,
		SamplesEach: *samples,
		Budget:      *budget,
		ExecutorFee: *fee,
	}
	if *scenarioPath != "" {
		raw, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fatalf("read scenario: %v", err)
		}
		if err := json.Unmarshal(raw, &scenario); err != nil {
			fatalf("parse scenario: %v", err)
		}
	}

	res, m, err := core.RunDetailed(scenario)
	if err != nil {
		fatalf("scenario failed: %v", err)
	}
	if *exportPath != "" {
		f, err := os.Create(*exportPath)
		if err != nil {
			fatalf("create export: %v", err)
		}
		if err := m.Chain.Export(f); err != nil {
			fatalf("export chain: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close export: %v", err)
		}
		fmt.Fprintf(os.Stderr, "chain exported to %s (verify with pds2-audit)\n", *exportPath)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("encode result: %v", err)
		}
		return
	}

	fmt.Printf("workload      %s\n", res.Workload)
	fmt.Printf("state         %v\n", res.State)
	fmt.Printf("accuracy      %.4f\n", res.Accuracy)
	fmt.Printf("blocks        %d\n", res.Blocks)
	fmt.Printf("total gas     %d\n", res.TotalGas)
	fmt.Printf("audit events  %d\n", res.AuditEvents)
	fmt.Println("payouts:")
	type payout struct {
		addr   core.Address
		amount uint64
	}
	var payouts []payout
	for a, v := range res.Payouts {
		payouts = append(payouts, payout{a, v})
	}
	sort.Slice(payouts, func(i, j int) bool {
		if payouts[i].amount != payouts[j].amount {
			return payouts[i].amount > payouts[j].amount
		}
		return payouts[i].addr.Hex() < payouts[j].addr.Hex()
	})
	var total uint64
	for _, p := range payouts {
		role := "provider"
		for _, e := range res.ExecutorAddr {
			if e == p.addr {
				role = "executor"
			}
		}
		fmt.Printf("  %s  %8d  (%s)\n", p.addr.Short(), p.amount, role)
		total += p.amount
	}
	fmt.Printf("  %-8s  %8d\n", "total", total)
}

// runMetrics implements `pds2 metrics`: a scenario run with telemetry
// enabled, reporting what the process measured rather than what the
// marketplace computed.
func runMetrics(args []string) {
	fs := flag.NewFlagSet("pds2 metrics", flag.ExitOnError)
	var (
		providers = fs.Int("providers", 4, "number of data providers")
		executors = fs.Int("executors", 2, "number of executors")
		samples   = fs.Int("samples", 200, "training examples per provider")
		budget    = fs.Uint64("budget", 100_000, "escrowed reward budget")
		seed      = fs.Uint64("seed", 1, "deterministic seed")
		jsonOut   = fs.Bool("json", false, "emit the snapshot as JSON (the /v1/metrics wire format)")
		showTrace = fs.Bool("trace", false, "also print the span tree")
	)
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}

	telemetry.Enable()
	if _, err := core.Run(core.Scenario{
		Seed:        *seed,
		Providers:   *providers,
		Executors:   *executors,
		SamplesEach: *samples,
		Budget:      *budget,
	}); err != nil {
		fatalf("scenario failed: %v", err)
	}

	snap := telemetry.Default().Snapshot()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fatalf("encode snapshot: %v", err)
		}
	} else {
		fmt.Print(snap.Summary())
	}
	if *showTrace {
		fmt.Println("\nspans:")
		fmt.Print(telemetry.Default().Tracer().Export().TreeString())
	}
}

// runTrace implements `pds2 trace`: a scenario run with telemetry
// enabled, rendering the stitched workload trace. With -self-test it
// runs the two-node simnet trace demo instead and verifies that the
// distributed spans stitch into a single lifecycle tree.
func runTrace(args []string) {
	fs := flag.NewFlagSet("pds2 trace", flag.ExitOnError)
	var (
		providers  = fs.Int("providers", 4, "number of data providers")
		executors  = fs.Int("executors", 2, "number of executors")
		samples    = fs.Int("samples", 200, "training examples per provider")
		seed       = fs.Uint64("seed", 1, "deterministic seed")
		jsonOut    = fs.Bool("json", false, "emit the raw spans as JSON (the /v1/trace wire format)")
		chromePath = fs.String("chrome", "", "write Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		selfTest   = fs.Bool("self-test", false, "run the two-node stitching demo and verify its invariants")
	)
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}

	if *selfTest {
		tr, err := core.TraceDemo(*seed)
		if err != nil {
			fatalf("trace self-test: %v", err)
		}
		if err := core.VerifyDemoTrace(tr); err != nil {
			fatalf("trace self-test: %v", err)
		}
		if _, err := tr.ChromeTraceJSON(); err != nil {
			fatalf("trace self-test: chrome export: %v", err)
		}
		fmt.Printf("trace self-test ok: %d spans across 2 nodes stitched into one trace\n", len(tr.Spans))
		fmt.Print(tr.TreeString())
		return
	}

	telemetry.Enable()
	if _, err := core.Run(core.Scenario{
		Seed:        *seed,
		Providers:   *providers,
		Executors:   *executors,
		SamplesEach: *samples,
	}); err != nil {
		fatalf("scenario failed: %v", err)
	}

	col := telemetry.NewCollector()
	col.AddRegistry(telemetry.Default())
	if *chromePath != "" {
		raw, err := col.Trace().ChromeTraceJSON()
		if err != nil {
			fatalf("chrome export: %v", err)
		}
		if err := os.WriteFile(*chromePath, raw, 0o644); err != nil {
			fatalf("write chrome trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "chrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *chromePath)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(col.Trace()); err != nil {
			fatalf("encode trace: %v", err)
		}
		return
	}
	for i, tr := range col.Traces() {
		if len(tr.Spans) == 0 {
			continue
		}
		fmt.Printf("trace %d (%d spans):\n", i, len(tr.Spans))
		fmt.Print(tr.TreeString())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pds2: "+format+"\n", args...)
	os.Exit(1)
}
