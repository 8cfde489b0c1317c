package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// collection is the name every workload builds and drives.
const (
	collection     = "bench"
	collectionPath = "/collections/" + collection
)

// daemon is one gbkmvd process, started at its default flags except for
// the listen address and data directory.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches gbkmvd over dataDir, appending its log to logPath.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The daemon must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting gbkmvd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	live.add(d)
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(cl *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := cl.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gbkmvd at %s not ready after %v (last error: %v)", d.base, timeout, err)
		}
		select {
		case <-d.done:
			return errors.New("gbkmvd exited during startup")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill stops the daemon with SIGKILL — a crash, as far as the data
// directory can tell — and waits for it to exit.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	d.log.Close()
	live.remove(d)
}

// peakRSSMB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// liveSet tracks started daemons so every exit path, a signal included,
// can stop them.
type liveSet struct {
	mu sync.Mutex
	m  map[*daemon]struct{}
}

var live = liveSet{m: make(map[*daemon]struct{})}

func (l *liveSet) add(d *daemon) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[d] = struct{}{}
}

func (l *liveSet) remove(d *daemon) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.m, d)
}

func (l *liveSet) killAll() {
	l.mu.Lock()
	ds := make([]*daemon, 0, len(l.m))
	for d := range l.m {
		ds = append(ds, d)
	}
	l.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// do sends one request and returns the status and body.
func do(cl *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(cl *http.Client, url string, v any) error {
	status, b, err := do(cl, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, b)
	}
	return json.Unmarshal(b, v)
}

// collStats is the part of /stats the benchmark reads.
type collStats struct {
	NumRecords int `json:"num_records"`
	SizeBytes  int `json:"size_bytes"`
	Segments   *struct {
		Count int `json:"count"`
	} `json:"segments"`
}

func (d *daemon) stats(cl *http.Client) (collStats, error) {
	var st collStats
	err := getJSON(cl, d.base+collectionPath+"/stats", &st)
	return st, err
}

// promSample is one scraped /metrics series: its name and label text.
type promSample struct {
	name, labels string
	value        float64
}

// scrape reads the daemon's Prometheus exposition.
func scrape(cl *http.Client, base string) ([]promSample, error) {
	status, b, err := do(cl, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	return parseProm(b)
}

func parseProm(b []byte) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed /metrics value in %q", line)
		}
		series, labels := line[:sp], ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, labels = series[:i], series[i:]
		}
		out = append(out, promSample{name: series, labels: labels, value: v})
	}
	return out, sc.Err()
}

// promSum sums the series named name whose labels contain every filter.
func promSum(s []promSample, name string, filters ...string) float64 {
	total := 0.0
next:
	for _, p := range s {
		if p.name != name {
			continue
		}
		for _, f := range filters {
			if !strings.Contains(p.labels, f) {
				continue next
			}
		}
		total += p.value
	}
	return total
}
