//go:build linux

package main

import (
	"bytes"
	"fmt"
	"io"
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

// buildServer compiles ./cmd/mbserver of the repository at root into
// outDir and returns the binary's path.
func buildServer(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "mbserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mbserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mbserver: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one mbserver child process and the base URL it serves.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
}

// startServer executes bin on a free loopback port and waits until
// /healthz answers. The child is killed with the harness (Pdeathsig),
// so a crashed run leaves no server behind.
func startServer(bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &server{url: "http://" + addr}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mbserver: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mbserver on %s never became healthy: %v\n%s", addr, err, s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it has been 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds is the child's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are
	// counted from the closing parenthesis.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", raw)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times %q %q", f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds is the harness's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
