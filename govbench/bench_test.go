package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pds2/internal/identity"
	"pds2/internal/loadgen"
)

// The self-test runs every workload at toy scale against a real node
// built from this tree. Run it from this directory with `go test ./...`.

func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pds2-node")
	out, err := exec.Command("go", "build", "-o", bin, "pds2/cmd/pds2-node").CombinedOutput()
	if err != nil {
		t.Fatalf("build pds2-node: %v\n%s", err, out)
	}
	return bin
}

func toy(t *testing.T, bin, name string, loseAck int) *result {
	t.Helper()
	wl, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	o := options{workload: name, seed: 7, seconds: 4, trace: true, node: bin,
		workdir: t.TempDir(), scale: 0.02, loseAck: loseAck}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := run(ctx, o, wl, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsEmitEveryMetric checks that each workload, run at toy
// scale, passes its output checks and emits every metric BENCHMARK.json
// names, with that unit and a sample count, and that the result line
// lists are the ones BENCHMARK.json declares.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := buildNode(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := toy(t, bin, w.Name, -1)
			if !res.correct {
				t.Fatalf("output checks failed: %v", res.problems)
			}
			if res.attempted == 0 {
				t.Fatal("no ops attempted")
			}
			all := append(append(metrics(nil), res.e2e...), res.layers...)
			check := func(name, unit string) {
				m, ok := all.get(name)
				switch {
				case !ok:
					t.Errorf("metric %s not emitted", name)
				case m.unit != unit:
					t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.unit, unit)
				case m.n < 0:
					t.Errorf("metric %s has no sample count", name)
				}
			}
			for _, m := range spec.EndToEnd {
				check(m.Name, m.Unit)
			}
			for _, m := range spec.PerLayer {
				check(m.Name, m.Unit)
			}
			var e2e, layers []string
			for _, m := range spec.EndToEnd {
				e2e = append(e2e, m.Name)
			}
			for _, m := range spec.PerLayer {
				layers = append(layers, m.Name)
			}
			if !slices.Equal(e2e, endToEnd) || !slices.Equal(layers, perLayer) {
				t.Errorf("result line lists %v and %v, BENCHMARK.json %v and %v", endToEnd, perLayer, e2e, layers)
			}
		})
	}
}

// TestLostAckIsFailure injects one write the lane acknowledges without
// sending: the run must report it, not numbers.
func TestLostAckIsFailure(t *testing.T) {
	res := toy(t, buildNode(t), "transfer-20k", 3)
	if res.correct {
		t.Fatal("a lost acknowledgement passed the output checks")
	}
	if res.failed == 0 || !strings.Contains(strings.Join(res.problems, "; "), "never committed") {
		t.Fatalf("lost acknowledgement not reported: failed=%d problems=%v", res.failed, res.problems)
	}
	line, err := append(res.e2e, res.layers...).jsonLine(res.correct, res.attempted, res.failed, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || len(out.Metrics) != 0 {
		t.Fatalf("failed run still reports numbers: %s", line)
	}
}

// TestCorpusDeterministic checks that a seed fixes the corpus byte for
// byte and that another seed changes it.
func TestCorpusDeterministic(t *testing.T) {
	wl, _ := lookup("mixed-durable-2k")
	chain := chainInfo{registry: identity.Address{1}, qaPub: []byte("qa")}
	digest := func(seed uint64) [32]byte {
		return buildCorpus(seed, wl, loadgen.Accounts(seed, 64), chain, 400).digest()
	}
	if digest(1) != digest(1) {
		t.Fatal("the same seed gave two corpora")
	}
	if digest(1) == digest(2) {
		t.Fatal("two seeds gave the same corpus")
	}
}
