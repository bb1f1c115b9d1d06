package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running hicsd process, started on an ephemeral loopback
// port that it reports in its "listening" log record.
type proc struct {
	cmd  *exec.Cmd
	addr string
	addc chan string
	done chan struct{} // closed once the process has exited
	tail []string      // last stderr lines, for error messages
}

// startProc execs hicsd with args. The process logs JSON to stderr; one
// goroutine reads it to the end, then reaps the process.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-log-format", "json")...)
	// The kernel kills the server if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, addc: make(chan string, 1), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if len(p.tail) == 20 {
				p.tail = p.tail[1:]
			}
			p.tail = append(p.tail, line)
			var rec struct{ Msg, Addr string }
			if !sent && json.Unmarshal(sc.Bytes(), &rec) == nil && strings.HasSuffix(rec.Msg, "listening") && rec.Addr != "" {
				p.addc <- rec.Addr
				sent = true
			}
		}
		_ = cmd.Wait()
	}()
	return p, nil
}

// waitReady waits for the listening address, then for /healthz to answer
// 200.
func (p *proc) waitReady(ctx context.Context) error {
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case p.addr = <-p.addc:
	case <-p.done:
		return fmt.Errorf("hicsd exited before listening: %s", strings.Join(p.tail, "\n"))
	case <-deadline.C:
		return errors.New("hicsd did not report a listening address within 30s")
	case <-ctx.Done():
		return ctx.Err()
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-p.done:
			return fmt.Errorf("hicsd exited before becoming healthy: %s", strings.Join(p.tail, "\n"))
		case <-deadline.C:
			return fmt.Errorf("hicsd at %s not healthy within 30s", p.addr)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it after
// 20 seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpu is the user plus system CPU time the process has used, from
// /proc/<pid>/stat (in clock ticks of 10 ms).
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cluster is the set of hicsd processes one stream workload runs against:
// one standalone server, or shards behind a front. Sessions go to target.
type cluster struct {
	shards []*proc // the scoring processes
	front  *proc   // nil for a standalone server
}

func (c *cluster) all() []*proc {
	if c.front == nil {
		return c.shards
	}
	return append([]*proc{c.front}, c.shards...)
}

func (c *cluster) target() *proc {
	if c.front != nil {
		return c.front
	}
	return c.shards[0]
}

// stop stops the front first, then the shards, and waits for all.
func (c *cluster) stop() {
	for _, p := range c.all() {
		p.stop()
	}
}

// startCluster starts the processes of a stream workload and returns once
// every one answers /healthz with 200, with the time that took from the
// first exec. The scoring processes run without -request-timeout, whose
// default of one minute would end a /stream session of the longest runs.
func startCluster(ctx context.Context, bin, model string, shards int) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{}
	if shards == 0 {
		p, err := startProc(bin, "-model", model, "-request-timeout", "0")
		if err != nil {
			return nil, 0, err
		}
		c.shards = []*proc{p}
		if err := p.waitReady(ctx); err != nil {
			c.stop()
			return nil, 0, err
		}
		return c, time.Since(start), nil
	}
	for i := 0; i < shards; i++ {
		p, err := startProc(bin, "-role", "shard", "-model", model, "-request-timeout", "0", "-drain-announce", "0s")
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.shards = append(c.shards, p)
	}
	var addrs []string
	for _, p := range c.shards {
		if err := p.waitReady(ctx); err != nil {
			c.stop()
			return nil, 0, err
		}
		addrs = append(addrs, p.addr)
	}
	f, err := startProc(bin, "-role", "front", "-shards", strings.Join(addrs, ","))
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	c.front = f
	if err := f.waitReady(ctx); err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}
