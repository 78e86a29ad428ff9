// Command scrapesmoke is the CI smoke test for the observability plane:
// it builds cmd/neutsim, runs the reduced metro scenario with the
// metrics server on an ephemeral port (`-hosts 1000 -metrics
// 127.0.0.1:0`), waits for the run to finish, and then scrapes the
// export surface the way a monitoring stack would:
//
//   - /metrics must be well-formed Prometheus text exposition
//     (HELP/TYPE blocks and `name{labels} value` samples only) and must
//     declare every required family;
//   - /metrics.json must parse as a snapshot whose required families
//     carry the values a completed metro run implies (packets actually
//     delivered, recorder actually ticked, flight recorder actually
//     sampled);
//   - /trace must return at least one event, every line a well-formed
//     NDJSON trace record;
//   - /trace.json must be valid Chrome trace-event JSON (required keys
//     per event, known phases, monotonic timestamps, balanced B/E
//     pairs) with at least one span slice — the run is started with
//     `-trace all` so every flow is recorded.
//
// Any miss exits non-zero, so the scrape surface cannot silently rot.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"netneutral/internal/obs"
)

// requiredFamilies are the base names a metro-run scrape must expose:
// the netem engine counters, the recorder/flight health families, and
// the epoch-latency histogram.
var requiredFamilies = []string{
	"netem_events_total",
	"netem_delivered_packets_total",
	"netem_forwarded_packets_total",
	"netem_dropped_packets_total",
	"netem_link_tx_packets_total",
	"netem_epochs_total",
	"netem_epoch_wall_ns",
	"netem_link_starts_total",
	"netem_barrier_mailboxes_total",
	"obs_recorder_ticks_total",
	"obs_flight_seen_total",
	"obs_flight_recorded_total",
}

// nonZero are families a completed 1000-host run must have advanced.
var nonZero = []string{
	"netem_events_total",
	"netem_delivered_packets_total",
	"netem_forwarded_packets_total",
	"netem_epochs_total",
	"obs_recorder_ticks_total",
	"obs_flight_seen_total",
	"obs_flight_recorded_total",
}

var (
	listenRe = regexp.MustCompile(`^metrics listening on (http://\S+)/metrics$`)
	holdRe   = regexp.MustCompile(`^metrics holding for `)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "scrapesmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("scrapesmoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "scrapesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "neutsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/neutsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building neutsim: %w", err)
	}

	// -metricshold keeps the server up with the final (post-run) state;
	// we kill the process as soon as the scrape is done.
	cmd := exec.Command(bin,
		"-hosts", "1000", "-duration", "500ms", "-seed", "7", "-trace", "all",
		"-metrics", "127.0.0.1:0", "-metricshold", "2m")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// Wait for the listen line (printed before the run starts) and then
	// the hold line (printed after the run completes, when the final
	// counters are quiescent).
	base, err := awaitServer(stdout, 2*time.Minute)
	if err != nil {
		return err
	}

	names, err := checkPrometheus(base + "/metrics")
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	for _, want := range requiredFamilies {
		if !names[want] {
			return fmt.Errorf("/metrics: required family %s missing", want)
		}
	}
	if err := checkJSON(base + "/metrics.json"); err != nil {
		return fmt.Errorf("/metrics.json: %w", err)
	}
	if err := checkTraceNDJSON(base + "/trace"); err != nil {
		return fmt.Errorf("/trace: %w", err)
	}
	if err := checkTrace(base + "/trace.json"); err != nil {
		return fmt.Errorf("/trace.json: %w", err)
	}
	return nil
}

// checkTrace validates the assembled-span export against the Chrome
// trace-event schema and requires at least one non-metadata event.
func checkTrace(url string) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(body); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			slices++
		}
	}
	if slices == 0 {
		return fmt.Errorf("no span events (only metadata)")
	}
	return nil
}

// awaitServer scans neutsim's stdout until both the listen line and the
// run-complete hold line have appeared, returning the server base URL.
func awaitServer(stdout io.Reader, timeout time.Duration) (string, error) {
	type outcome struct {
		base string
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		var base string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println(line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				base = m[1]
			}
			if holdRe.MatchString(line) {
				if base == "" {
					ch <- outcome{err: fmt.Errorf("run finished but no listen line seen")}
					return
				}
				ch <- outcome{base: base}
				// Keep draining so neutsim never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- outcome{err: fmt.Errorf("neutsim exited before the metrics hold (scan err: %v)", sc.Err())}
	}()
	select {
	case o := <-ch:
		return o.base, o.err
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out after %v waiting for neutsim", timeout)
	}
}

func fetch(url string) ([]byte, error) {
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// checkPrometheus validates the text exposition line by line and
// returns the set of family base names declared by TYPE lines.
func checkPrometheus(url string) (map[string]bool, error) {
	body, err := fetch(url)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	samples := 0
	for i, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", i+1, line)
			}
			names[m[1]] = true
		case sampleRe.MatchString(line):
			samples++
		default:
			return nil, fmt.Errorf("line %d: not valid exposition: %q", i+1, line)
		}
	}
	if samples == 0 {
		return nil, fmt.Errorf("no samples")
	}
	return names, nil
}

// checkJSON parses the snapshot and enforces the values a completed
// metro run implies.
func checkJSON(url string) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	var snap struct {
		TimeNanos int64 `json:"ts"`
		Metrics   []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return err
	}
	if len(snap.Metrics) == 0 {
		return fmt.Errorf("empty snapshot")
	}
	byName := map[string]float64{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m.Value
	}
	for _, name := range nonZero {
		v, ok := byName[name]
		if !ok {
			return fmt.Errorf("family %s missing", name)
		}
		if v <= 0 {
			return fmt.Errorf("family %s = %v after a completed run, want > 0", name, v)
		}
	}
	return nil
}

// checkTraceNDJSON requires at least one sampled trace event, each a
// JSON object with exactly the flight recorder's fields.
func checkTraceNDJSON(url string) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	events := 0
	for ; dec.More(); events++ {
		var ev obs.TraceRec
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("event %d: %w", events+1, err)
		}
	}
	if events == 0 {
		return fmt.Errorf("no sampled trace events")
	}
	return nil
}
