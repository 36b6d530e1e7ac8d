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
	"time"
)

// proc is one heatmapd child process.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	logf   *os.File
	exited chan struct{}
}

// launch starts heatmapd with args (plus a loopback -addr) and waits until
// GET /healthz answers 200. It returns the process and the time from exec to
// that first 200: the server's set-up time as a user sees it.
func (b *bench) launch(args []string) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.CreateTemp(b.dir, "heatmapd-*.log")
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(b.bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	p := &proc{cmd: cmd, addr: addr, logf: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting heatmapd: %w", err)
	}
	b.procs = append(b.procs, p)
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	// A dedicated client: connection attempts before the listener exists
	// fail fast with ECONNREFUSED and leave no connection behind.
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(3 * time.Minute)
	for {
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("heatmapd exited during set-up: %s", p.logTail())
		default:
		}
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				probe.CloseIdleConnections()
				return p, setup, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, 0, errors.New("heatmapd did not become healthy within 3 minutes")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the process with SIGKILL and waits for it to exit.
func (p *proc) kill() {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.logf.Close()
}

// stopAll kills every process the run started that is still running.
func (b *bench) stopAll() {
	for _, p := range b.procs {
		p.kill()
	}
}

func (p *proc) logTail() string {
	data, _ := os.ReadFile(p.logf.Name())
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// cpuTicks returns the process's utime+stime in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line")
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ: 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// conn is one HTTP connection to the server: every client of the benchmark
// holds exactly one, so a workload never opens more connections than it
// has clients.
type conn struct {
	c    *http.Client
	base string
}

func newConn(p *proc) *conn {
	return &conn{
		c: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base: "http://" + p.addr,
	}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// result is one completed request.
type result struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

func (r result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// do sends one request and reads the whole response.
func (c *conn) do(method, path string, body []byte) result {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return result{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return result{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return result{status: resp.StatusCode, body: data, latency: time.Since(start), err: err}
}

// count books one request against the run's attempted and failed totals.
// A non-2xx answer (429 included), a transport error or a timeout is a
// failure.
func (b *bench) count(r result) bool {
	b.attempted++
	if !r.ok() {
		b.failed++
		if b.failed <= 5 {
			msg := string(r.body)
			if len(msg) > 200 {
				msg = msg[:200]
			}
			fmt.Fprintf(os.Stderr, "perfbench: request failed: status %d err %v %s\n", r.status, r.err, msg)
		}
		return false
	}
	return true
}

// getJSON fetches path and decodes the 2xx body into v.
func (b *bench) getJSON(c *conn, path string, v any) error {
	r := c.do("GET", path, nil)
	if !b.count(r) {
		return fmt.Errorf("GET %s: status %d: %v", path, r.status, r.err)
	}
	return json.Unmarshal(r.body, v)
}
