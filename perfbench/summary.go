package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// summarize reads result files (the benchmark's standard output, one run
// or many appended) and prints, per workload and metric, the median and
// quartiles over the runs, with the spread as a share of the median.
func summarize(out io.Writer, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("summary: no result files given")
	}
	// workload → metric → values
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	runs := map[string]int{}
	for _, path := range files {
		if err := readResults(path, func(workload string, m metricSet) {
			runs[workload]++
			if values[workload] == nil {
				values[workload] = map[string][]float64{}
			}
			for name, v := range m {
				values[workload][name] = append(values[workload][name], v.Value)
				units[name] = v.Unit
			}
		}); err != nil {
			return err
		}
	}
	var wnames []string
	for w := range values {
		wnames = append(wnames, w)
	}
	sort.Strings(wnames)
	for _, w := range wnames {
		fmt.Fprintf(out, "%s (%d runs)\n", w, runs[w])
		fmt.Fprintf(out, "  %-40s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
		var mnames []string
		for m := range values[w] {
			mnames = append(mnames, m)
		}
		sort.Strings(mnames)
		for _, m := range mnames {
			q1, med, q3 := quartiles(values[w][m])
			fmt.Fprintf(out, "  %-40s %14.4f %14.4f %14.4f %8.4f  %s\n", m, q1, med, q3, ratio(q3-q1, med), units[m])
		}
	}
	return nil
}

// readResults walks a result file: each result line is preceded by the
// header line naming its workload.
func readResults(path string, fn func(workload string, m metricSet)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	workload := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			Machine map[string]any `json:"machine"`
			Metrics metricSet      `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case rec.Machine != nil:
			workload, _ = rec.Machine["workload"].(string)
			if rec.Machine["trace"] == true {
				workload += " (traced)"
			}
		case rec.Metrics != nil:
			fn(workload, rec.Metrics)
		}
	}
	return sc.Err()
}

// quartiles returns the first quartile, median and third quartile with
// the same method as Python's statistics.quantiles(values, n=4)
// (exclusive), falling back to min/median/max for fewer than two values.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		m := float64(n + 1)
		j := k * (n + 1) / 4
		delta := float64(k)*m/4 - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return q(1), median(s), q(3)
}
