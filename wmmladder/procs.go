package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one program process the benchmark started.  Its output goes to a
// log file under the work directory.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startProc runs bin with args, logging to <work>/<name>.log.
func startProc(work, name, bin string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: f, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM, waits up to 10s, then kills; it returns once the
// process has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case err := <-p.done:
		p.done <- err
		return true
	default:
		return false
	}
}

// hwmMB reads the process's peak resident set (VmHWM) in MB.
func hwmMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (p *proc) hwmMB() float64 { return hwmMB(p.cmd.Process.Pid) }

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls base+"/readyz" until it answers 200, the process dies,
// or ctx ends.
func waitReady(ctx context.Context, p *proc, base string) error {
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready (see %s)", p.name, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// startWmmd starts wmmd on a fresh port and waits until it is ready.  It
// returns the process, its base URL and the time from exec to ready.
func startWmmd(ctx context.Context, env *runEnv, name string, args ...string) (*proc, string, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	p, err := startProc(env.work, name, filepath.Join(env.bin, "wmmd"), append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, "", 0, err
	}
	base := "http://" + addr
	if err := waitReady(ctx, p, base); err != nil {
		p.stop()
		return nil, "", 0, err
	}
	return p, base, time.Since(t0), nil
}

// selfHWM is the benchmark process's own peak resident set in MB.
func selfHWM() float64 { return hwmMB(os.Getpid()) }
