package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envLine records what the numbers depend on besides the code.
func envLine() string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d cpu=%q at=%s", runtime.Version(), runtime.GOMAXPROCS(0),
		runtime.NumCPU(), cpuModel(), time.Now().UTC().Format(time.RFC3339))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// steadiness runs the workload n times, each in a child process with
// its own seed, and prints every metric's quartiles and spread
// (interquartile range over median), the figure the benchmark's bounds
// are judged by.
func steadiness(w *workload, seed int64, seconds float64, trace, n int, workdir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"--workdir", workdir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %v\n%s", s, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %v", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed\n%s", s, res.Failed, res.Attempted, stderr.String())
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d done\n", s)
	}
	fmt.Printf("steadiness: workload=%s runs=%d seconds=%g trace=%d seeds=%d..%d\n",
		w.name, n, seconds, trace, seed, seed+int64(n)-1)
	fmt.Printf("commit=%s %s\n", gitCommit(), envLine())
	fmt.Printf("%-40s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	order := endToEnd
	if trace == 1 {
		order = perLayer
	}
	for _, e := range order {
		xs := values[e.name]
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("%-40s %12.4f %12.4f %12.4f %8.4f %s\n", e.name, q1, q2, q3, ratio(q3-q1, q2), units[e.name])
	}
	return nil
}
