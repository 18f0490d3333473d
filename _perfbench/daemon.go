package main

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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running topkcleand process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // process exit status, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts the daemon and returns once /healthz answers 200,
// with the time from exec to healthy.
func startDaemon(bin string, args []string, logw io.Writer, conns int) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logw
	cmd.Stderr = logw
	// The daemon dies with the benchmark, whatever way the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("daemon exited during start-up: %v", d.err)
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 120*time.Second {
			d.kill()
			return nil, 0, errors.New("daemon not healthy after 120s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the daemon with SIGKILL (a crash, for the durability check)
// and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-d.exited
	d.client.CloseIdleConnections()
}

// hwmMB reads the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the daemon's CPU time, all threads included: the sum
// of each thread's on-CPU nanoseconds from /proc schedstat.
func (d *daemon) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for the daemon: %v", err)
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited; the Go runtime rarely retires threads
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// do sends one request and reads the whole response into buf.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// get fetches a path and returns its body.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	var buf bytes.Buffer
	status, err := d.do(ctx, "GET", path, nil, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, buf.Bytes())
	}
	return buf.Bytes(), nil
}

func (d *daemon) stats(ctx context.Context) (*statsResponse, error) {
	body, err := d.get(ctx, "/stats")
	if err != nil {
		return nil, err
	}
	var st statsResponse
	return &st, json.Unmarshal(body, &st)
}

// phase is the outcome of sending one part of the sequences: per-kind
// latencies, the attempted and failed counts, and the wall time.
type phase struct {
	lat       [numKinds][]float64 // milliseconds
	attempted int
	failed    int
	firstErr  string
	wall      time.Duration
}

// drive sends the requests of each connection whose warm flag equals
// warm, one closed loop per connection, and checks every response:
// against its expected body byte for byte, or, where the replay kept
// none, for the answer's invariants once the phase is over.
func (d *daemon) drive(ctx context.Context, conns [][]*request, warm bool) *phase {
	// The load generator needs little CPU; one P keeps its runtime from
	// competing with the daemon for the machine's other core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	per := make([]*phase, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c, seq := range conns {
		p := &phase{}
		per[c] = p
		wg.Add(1)
		go func(seq []*request) {
			defer wg.Done()
			var buf bytes.Buffer
			for _, r := range seq {
				if r.warm != warm {
					continue
				}
				t0 := time.Now()
				status, err := d.do(ctx, r.method(), r.path, r.body, &buf)
				ms := float64(time.Since(t0)) / 1e6
				p.attempted++
				p.lat[r.kind] = append(p.lat[r.kind], ms)
				switch {
				case err != nil:
					p.fail(fmt.Sprintf("%s %s: %v", r.method(), r.path, err))
				case status < 200 || status > 299:
					p.fail(fmt.Sprintf("%s %s: status %d: %s", r.method(), r.path, status, buf.Bytes()))
				case r.want == nil:
					// Checked after the phase, off the measured path.
					r.got = append(r.got[:0], buf.Bytes()...)
				case !bytes.Equal(buf.Bytes(), r.want):
					p.fail(fmt.Sprintf("%s %s: answer differs from the replay:\n got %s\nwant %s", r.method(), r.path, buf.Bytes(), r.want))
				}
			}
		}(seq)
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	for _, seq := range conns {
		for _, r := range seq {
			if r.warm == warm && r.want == nil && r.got != nil {
				if err := checkAnswer(r, r.got); err != nil {
					out.fail(fmt.Sprintf("%s %s: %v", r.method(), r.path, err))
				}
			}
		}
	}
	for _, p := range per {
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
		for k := range p.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
	}
	return out
}

func (p *phase) fail(msg string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = msg
	}
}
