package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// spec mirrors BENCHMARK.json, the declaration every emitted metric is
// checked against: a run that emits a name the file does not declare,
// or misses one it does, fails.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, where run.sh starts the harness) or its parent (`go run .` from
// inside benchmark/).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkSet reports an error unless got holds exactly the declared names.
func checkSet(kind string, decls []metricDecl, got map[string]float64) error {
	var problems []string
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			problems = append(problems, "missing "+d.Name)
		}
	}
	for name := range got {
		if !nameRe.MatchString(name) {
			problems = append(problems, fmt.Sprintf("bad name %q", name))
		}
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("%s metrics do not match BENCHMARK.json: %s", kind, strings.Join(problems, ", "))
}

// clock labels a metric's time base. Simulated-clock metrics carry
// "sim_" in their name (what the modelled hardware would take,
// deterministic in the seed); every other timing or rate is host time
// (what the simulator costs to run); counts and ratios have no clock.
func clock(d metricDecl) string {
	if strings.Contains(d.Name, "sim_") {
		return "sim"
	}
	switch d.Unit {
	case "s", "ms", "ns", "1/s":
		return "host"
	}
	return "-"
}

// stat digests the samples of one metric across the timed repetitions.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(samples []float64) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return stat{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return stat{Median: med, Min: s[0], Max: s[n-1], N: n}
}

func median(samples []float64) float64 { return summarize(samples).Median }
