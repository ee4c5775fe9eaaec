package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metric is one reported number with its sample count. For a p99,
// beyond counts the samples above it (the definition wants at least
// 10); it is -1 for everything else.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int
	beyond int
}

type metrics []metric

func (ms *metrics) add(name string, value float64, unit string, n int) {
	*ms = append(*ms, metric{name: name, value: value, unit: unit, n: n, beyond: -1})
}

// addDist adds the median and p99 of samples as prefix_p50_<unit> and
// prefix_p99_<unit>.
func (ms *metrics) addDist(prefix string, samples []float64, unit string) {
	s := slices.Clone(samples)
	slices.Sort(s)
	*ms = append(*ms,
		metric{name: prefix + "_p50" + "_" + unit, value: quantile(s, 0.50), unit: unit, n: len(s), beyond: -1},
		metric{name: prefix + "_p99" + "_" + unit, value: quantile(s, 0.99), unit: unit, n: len(s), beyond: beyond(len(s), 0.99)})
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// inf marks an op that never completed.
var inf = math.Inf(1)

func median(v []float64) float64 { return pct(v, 0.5) }

// pct is the nearest-rank quantile of unsorted samples.
func pct(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, q)
}

// quantile is the nearest-rank quantile of sorted samples; +Inf samples
// (ops that never completed) sort last and count as missing any limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// beyond is how many samples lie above the nearest-rank quantile q.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// printHuman writes one line per metric: name, value, unit, samples.
func (ms metrics) printHuman(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		line := fmt.Sprintf("  %-36s %14.4f %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.beyond >= 0 {
			line += fmt.Sprintf(" beyond=%d", m.beyond)
			if m.beyond < 10 {
				line += " (fewer than 10 samples beyond this p99)"
			}
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (ms metrics) jsonLine(correct bool, attempted, failed int, names []string) ([]byte, error) {
	out := resultLine{Correct: correct, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	if correct {
		for _, name := range names {
			m, ok := ms.get(name)
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", name)
			}
			out.Metrics[name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	return json.Marshal(out)
}
