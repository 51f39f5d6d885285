// Command benchmark is the repository's performance benchmark: five
// named workloads over the simulator, each reporting host-clock cost
// (what the simulator takes to run) and simulated-clock results (what
// the modelled hardware would take), plus a traced run that times every
// layer from outside. BENCHMARK.json at the repository root declares
// the workloads and metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh [-workload name] [-seed N] [-seconds S] [-reps K] [-trace 0|1] [-json out] [-agree]
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

//go:embed golden/seed42.json
var goldenJSON []byte

// goldenDrift reports 1 when a full-size seed-42 run's sim_digest
// differs from the checked-in one: some simulated statistic moved. Other
// seeds and sizes have no golden and report 0.
func goldenDrift(name string, p runParams, digest string) float64 {
	if p.seed != 42 || p.sz != full {
		return 0
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil || golden[name] == digest {
		return 0
	}
	return 1
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five)")
	seed := flag.Int64("seed", 42, "workload seed; 7 is held out for later claims")
	seconds := flag.Float64("seconds", 0, "how long each workload repeats its timed call (default: BENCHMARK.json run_seconds)")
	reps := flag.Int("reps", 0, "timed repetitions per workload (overrides -seconds; minimum 3)")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	jsonOut := flag.String("json", "", "also write the full results to this file")
	agree := flag.Bool("agree", false, "run everything twice and fail unless the two runs agree within the bounds")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *reps, *trace == 1, *jsonOut, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, reps int, trace bool, jsonOut string, agree bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if reps != 0 && reps < minReps {
		return fmt.Errorf("-reps %d: fewer than %d repetitions support no median", reps, minReps)
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = float64(sp.RunSeconds)
	}
	var selected []*workload
	for _, d := range sp.Workloads {
		if name != "" && d.Name != name {
			continue
		}
		w, err := findWorkload(d.Name)
		if err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", name)
	}
	params := runParams{sz: full, seed: seed, seconds: seconds, reps: reps, trace: trace, spec: sp, outDir: "benchmark/out"}
	if _, err := os.Stat("benchmark"); err != nil {
		params.outDir = "out" // started inside benchmark/
	}

	suite := func() ([]*result, bool, error) {
		var results []*result
		ok := true
		for _, w := range selected {
			res, err := w.run(params)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", w.name, err)
			}
			if err := report(sp, res); err != nil {
				return nil, false, fmt.Errorf("%s: %w", w.name, err)
			}
			ok = ok && len(res.Problems) == 0
			results = append(results, res)
		}
		return results, ok, nil
	}
	results, ok, err := suite()
	if err != nil {
		return err
	}
	if agree {
		again, ok2, err := suite()
		if err != nil {
			return err
		}
		ok = ok && ok2 && agreement(sp, results, again)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, results); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a correctness check, mechanism assertion or agreement bound failed (see above)")
	}
	return nil
}

// report prints every metric of one run by name with its unit and clock,
// checks the emitted names against BENCHMARK.json, and ends with the
// one-line JSON result: end-to-end metrics, or per-layer metrics for a
// traced run.
func report(sp *spec, res *result) error {
	fmt.Printf("\n== %s  seed %d  sim_digest %.16s  (%s)\n", res.Workload, res.Seed, res.SimDigest, unvalidated)
	medians := make(map[string]float64, len(res.E2E))
	for name, st := range res.E2E {
		medians[name] = st.Median
	}
	if err := checkSet("end-to-end", sp.EndToEnd, medians); err != nil {
		return err
	}
	qualifier := "median min..max over the timed repetitions; too few samples for a tail percentile"
	if res.Layer != nil {
		qualifier += "; traced run, not a reference for end-to-end metrics"
	}
	fmt.Printf("end-to-end (%s)\n", qualifier)
	for _, d := range sp.EndToEnd {
		st := res.E2E[d.Name]
		fmt.Printf("  %-40s %16.6g %-6s %-5s [%.6g .. %.6g] n=%d  %s is better, bound %g%%\n",
			d.Name, st.Median, d.Unit, clock(d), st.Min, st.Max, st.N, d.Better, *d.Bound*100)
	}
	emitted := medians
	decls := sp.EndToEnd
	if res.Layer != nil {
		if err := checkSet("per-layer", sp.PerLayer, res.Layer); err != nil {
			return err
		}
		fmt.Println("per-layer (one traced run; host timings taken from outside each layer)")
		for _, d := range sp.PerLayer {
			fmt.Printf("  %-40s %16.6g %-6s %-5s\n", d.Name, res.Layer[d.Name], d.Unit, clock(d))
		}
		emitted, decls = res.Layer, sp.PerLayer
	}
	fmt.Printf("verify %.3f s: %d attempted, %d failed\n", res.VerifyS, res.Attempted, res.Failed)
	for _, problem := range res.Problems {
		fmt.Println("  FAILED:", problem)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Problems) == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range decls {
		v := emitted[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// agreement compares two runs of the suite per workload and end-to-end
// metric. Simulated-clock metrics must repeat exactly (a change meant
// only to speed the simulator up leaves every simulated statistic
// identical); host metrics must stay within their declared bound.
func agreement(sp *spec, first, second []*result) bool {
	ok := true
	fmt.Println("\n== agreement of two runs")
	for i, a := range first {
		b := second[i]
		if a.SimDigest != b.SimDigest {
			fmt.Printf("  %-20s sim_digest %s vs %s  DISAGREE\n", a.Workload, a.SimDigest, b.SimDigest)
			ok = false
		}
		for _, d := range sp.EndToEnd {
			x, y := a.E2E[d.Name].Median, b.E2E[d.Name].Median
			diff := math.Abs(x-y) / math.Abs(x)
			bound := *d.Bound
			if clock(d) == "sim" {
				bound = 1e-12
			}
			verdict := "ok"
			if diff > bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("  %-20s %-18s %14.6g %14.6g  diff %8.4f%%  bound %g%%  %s\n",
				a.Workload, d.Name, x, y, diff*100, bound*100, verdict)
		}
	}
	return ok
}

// writeJSON stores the full results with the environment they were
// measured in.
func writeJSON(path string, results []*result) error {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Workload < results[j].Workload })
	data, err := json.MarshalIndent(struct {
		Go         string    `json:"go"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		NProc      int       `json:"nproc"`
		Commit     string    `json:"commit"`
		Caveat     string    `json:"caveat"`
		Results    []*result `json:"results"`
	}{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, unvalidated, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
