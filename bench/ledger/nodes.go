package main

// servemodel processes under test: built once per invocation, started on
// free loopback ports, and killed on every exit path (explicit stop, the
// harness's deferred clean-up, or the kernel's parent-death signal should
// the harness itself die).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/otrace"
)

// node is one servemodel under test.
type node struct {
	name string
	url  string // http://127.0.0.1:port
	pid  int    // 0 for an in-process node (tests)
	stop func() // idempotent; returns once the process has exited
}

// spawnFunc starts a node named name. procs > 0 pins its GOMAXPROCS;
// maxQueue > 0 sets its admission queue length (-maxqueue).
type spawnFunc func(ctx context.Context, name string, procs, maxQueue int) (*node, error)

// buildServemodel compiles cmd/servemodel into dir. Compile time is kept
// out of every set-up measurement.
func buildServemodel(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "servemodel")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/servemodel")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build servemodel: %w\n%s", err, out)
	}
	return bin, nil
}

// servemodelSpawner starts bin as a child process logging into logDir.
func servemodelSpawner(bin, logDir string) spawnFunc {
	return func(ctx context.Context, name string, procs, maxQueue int) (*node, error) {
		var lastErr error
		// A port found free can be taken before the child binds it; retry
		// on another.
		for attempt := 0; attempt < 3; attempt++ {
			n, err := startServemodel(ctx, bin, logDir, name, procs, maxQueue)
			if err == nil {
				return n, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				break
			}
		}
		return nil, lastErr
	}
}

func startServemodel(ctx context.Context, bin, logDir, name string, procs, maxQueue int) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-nodename", name, "-loglevel", "warn"}
	if maxQueue > 0 {
		args = append(args, "-maxqueue", strconv.Itoa(maxQueue))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = os.Environ()
	if procs > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a killed node carries no information
		close(exited)
	}()
	var once sync.Once
	n := &node{name: name, url: "http://" + addr, pid: cmd.Process.Pid}
	n.stop = func() {
		once.Do(func() {
			_ = cmd.Process.Kill() // fails only when the process already exited
			<-exited
			logf.Close()
		})
	}
	if err := waitHealthy(ctx, n.url, exited); err != nil {
		n.stop()
		return nil, fmt.Errorf("%s: %w\n%s", name, err, tail(logPath, 2048))
	}
	return n, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// 20 s pass.
func waitHealthy(ctx context.Context, url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return errors.New("not healthy after 20s")
}

// tail returns up to the last n bytes of a file, for failure reports.
func tail(path string, n int64) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if int64(len(b)) > n {
		b = b[int64(len(b))-n:]
	}
	return string(b)
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// newClient returns an HTTP client that opens at most conns connections
// per host, so a run's load never exceeds its stated connection count.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends a JSON body and returns the status and the whole answer.
func post(ctx context.Context, c *http.Client, url string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches url and returns the status and body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// fetchTrace reads one node's spans of trace id (GET /v1/trace/{id}).
// found is false when the node recorded none.
func fetchTrace(ctx context.Context, c *http.Client, n *node, id string) (wt otrace.WireTrace, found bool, err error) {
	code, b, err := get(ctx, c, n.url+"/v1/trace/"+id)
	switch {
	case err != nil:
		return wt, false, err
	case code == http.StatusNotFound:
		return wt, false, nil
	case code != http.StatusOK:
		return wt, false, fmt.Errorf("%s: GET /v1/trace: HTTP %d", n.name, code)
	}
	if err := json.Unmarshal(b, &wt); err != nil {
		return wt, false, fmt.Errorf("%s: decode trace: %w", n.name, err)
	}
	return wt, true, nil
}

// scrape reads a node's /metrics into a map keyed by the sample's full name
// including labels.
func scrape(ctx context.Context, c *http.Client, n *node) (map[string]float64, error) {
	code, b, err := get(ctx, c, n.url+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: GET /metrics: HTTP %d", n.name, code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
