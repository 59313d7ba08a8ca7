package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// child is one topojoind process serving the benchmark over loopback.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// Setup is exec → first healthy /v1/healthz; SetupCPU is the
	// daemon's user+system CPU time over the same span.
	Setup, SetupCPU time.Duration

	mu     sync.Mutex
	stderr bytes.Buffer
	done   chan struct{} // closed once the stderr reader has drained
}

// startChild execs the daemon with args (plus a loopback listener on a
// kernel-chosen port) and blocks until /v1/healthz answers "ok".
func startChild(ctx context.Context, bin string, args []string) (*child, error) {
	c := &child{done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-grace", "5s"}, args...)...)
	// Should the benchmark itself be killed, the kernel kills the
	// daemon too rather than leaving it serving.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting topojoind: %w", err)
	}
	go c.readStderr(pipe, addrc)

	fail := func(err error) (*child, error) {
		c.stop()
		return nil, fmt.Errorf("%w; topojoind stderr:\n%s", err, c.stderrTail())
	}
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	select {
	case c.base = <-addrc:
	case <-c.done:
		return fail(errors.New("topojoind exited before listening"))
	case <-ctx.Done():
		return fail(errors.New("topojoind did not start listening"))
	}
	for {
		var h struct {
			Status string `json:"status"`
		}
		if err := getJSON(ctx, c.base+"/v1/healthz", &h); err == nil && h.Status == "ok" {
			c.Setup = time.Since(start)
			if c.SetupCPU, err = c.cpuTime(); err != nil {
				return fail(err)
			}
			return c, nil
		}
		select {
		case <-ctx.Done():
			return fail(errors.New("topojoind never became healthy"))
		case <-c.done:
			return fail(errors.New("topojoind exited before becoming healthy"))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readStderr keeps the daemon's log for diagnostics and reports the
// bound address from its "serving ... on http://addr" line.
func (c *child) readStderr(r io.Reader, addrc chan<- string) {
	defer close(c.done)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.stderr.WriteString(line + "\n")
		c.mu.Unlock()
		if i := strings.Index(line, " on http://"); !sent && i >= 0 && strings.Contains(line, "serving") {
			addr := strings.Fields(line[i+len(" on "):])[0]
			addrc <- addr
			sent = true
		}
	}
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stderr.String()
	if len(s) > 4000 {
		s = s[len(s)-4000:]
	}
	return s
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 20 s, and waits for the process and its log reader.
func (c *child) stop() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	exited := make(chan struct{})
	go func() {
		<-c.done // stderr closes when the process exits
		_ = c.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-exited
	}
}

// statusMiB reads a memory field of the daemon's /proc status, such as
// VmHWM, in MiB.
func (c *child) statusMiB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// liveHeapMiB forces a garbage collection in the daemon (the gc=1 of
// its heap profile endpoint) and reads the heap in use afterwards.
func (c *child) liveHeapMiB(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/pprof/heap?gc=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	m, err := c.metrics(ctx)
	if err != nil {
		return 0, err
	}
	for _, g := range m.Gauges {
		if g.Name == "go_heap_alloc_bytes" {
			return float64(g.Value) / (1 << 20), nil
		}
	}
	return 0, errors.New("no go_heap_alloc_bytes gauge in /metrics.json")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuTime reads the daemon's user+system CPU time so far.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// counter sums every counter of s whose name is base or
// base{labels...}.
func counter(s *obs.SnapshotData, base string) int64 {
	var n int64
	for _, c := range s.Counters {
		if c.Name == base || strings.HasPrefix(c.Name, base+"{") {
			n += c.Value
		}
	}
	return n
}

// hist returns the named histogram of s (empty when it does not exist).
func hist(s *obs.SnapshotData, name string) obs.HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Hist
		}
	}
	return obs.HistogramSnapshot{}
}

func (c *child) metrics(ctx context.Context) (*obs.SnapshotData, error) {
	var m obs.SnapshotData
	if err := getJSON(ctx, c.base+"/metrics.json", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// adminClient serves the benchmark's own calls outside the timed
// window (health, metrics, dataset listing) on a connection of its own.
var adminClient = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes the JSON body (status must be 200).
func getJSON(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(body, into)
}
