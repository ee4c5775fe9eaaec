package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nodeProc is a pds2-node child process.
type nodeProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port. The node binds
// it a moment later; nothing else on a benchmark host races for it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launchNode starts the node and returns once GET /v1/status answers
// 200, with the time from launch to that answer (genesis funding,
// contract deploys and store open all happen before the node listens).
func launchNode(ctx context.Context, bin string, args []string, logPath string) (*nodeProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	n := &nodeProc{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start node: %w", err)
	}
	go func() {
		n.err = cmd.Wait()
		close(n.done)
	}()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := t0.Add(90 * time.Second)
	for {
		resp, err := probe.Get(n.url + "/v1/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, time.Since(t0), nil
			}
		}
		select {
		case <-n.done:
			return nil, 0, fmt.Errorf("node exited before serving (%v):\n%s", n.err, tail(logPath))
		case <-ctx.Done():
			n.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, 0, errors.New("node did not answer /v1/status within 90s")
		}
	}
}

// kill stops the node at once and reaps it.
func (n *nodeProc) kill() {
	_ = n.cmd.Process.Kill() // fails only if it already exited
	<-n.done
}

// stop shuts the node down gracefully (SIGTERM: drain, close the
// store) and reaps it, killing it if it has not exited within 20s.
func (n *nodeProc) stop() error {
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-n.done
		return nil
	}
	select {
	case <-n.done:
		return nil
	case <-time.After(20 * time.Second):
		n.kill()
		return errors.New("node ignored SIGTERM for 20s")
	}
}

// procCPU is a process's user+system CPU so far, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ, 100
	// on Linux).
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS is the node's VmHWM in MiB.
func (n *nodeProc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	raw, _ := os.ReadFile(path) // best effort: the log only decorates an error
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}
