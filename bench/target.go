package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// target is the system under load: the daemon as a separate process in a
// real run, an in-process httptest server in the smoke test.
type target interface {
	URL() string
	// Crash stops the server without a clean shutdown and starts it again
	// on the same data directory.
	Crash() error
	Stop()
	// Proc reports the server process's CPU time so far and its peak
	// resident set; ok is false when the target has no process of its own.
	Proc() (cpu time.Duration, peakRSSMB float64, ok bool)
}

// repoRoot walks up from the working directory to the directory holding
// the daemon's source, so the harness runs from the root or from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "deltarepaird", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/deltarepaird not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/deltarepaird into the build directory. The Go
// build cache makes every build after the first a staleness check.
func buildDaemon(ctx context.Context, root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "deltarepaird")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/deltarepaird")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building deltarepaird: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is deltarepaird running as a child process on a loopback port.
type daemon struct {
	bin     string
	dataDir string
	port    int
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{}
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

// startDaemon starts the daemon under the benchmark's fixed conditions:
// GOMAXPROCS=2, every flag at its default except the address and the data
// directory. port 0 picks a free port; a given port that is taken is an
// error, never a silent move to another one.
func startDaemon(bin, dataDir, logPath string, port int) (*daemon, error) {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return nil, err
		}
	} else if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err != nil {
		return nil, fmt.Errorf("port %d is taken: %v", port, err)
	} else {
		ln.Close()
	}
	d := &daemon{bin: bin, dataDir: dataDir, port: port, logPath: logPath}
	if err := d.start(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) start() error {
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", d.port)}
	if d.dataDir != "" {
		args = append(args, "-data-dir", d.dataDir)
	}
	logFile, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting deltarepaird: %w", err)
	}
	d.cmd, d.exited = cmd, make(chan struct{})
	go func(exited chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		close(exited)
	}(d.exited)
	// The daemon cannot report a ":0" port, so poll the chosen one.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(d.URL() + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("deltarepaird exited during start-up; see %s", d.logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.Stop()
			return fmt.Errorf("deltarepaird not healthy after 15s; see %s", d.logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) URL() string { return fmt.Sprintf("http://127.0.0.1:%d", d.port) }

// Stop kills the daemon and waits until it has ended.
func (d *daemon) Stop() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-d.exited
	d.cmd = nil
}

func (d *daemon) Crash() error {
	d.Stop()
	return d.start()
}

// Proc reads /proc/<pid>/stat and /proc/<pid>/status. The harness calls it
// only at window boundaries so sampling does not perturb the run.
func (d *daemon) Proc() (time.Duration, float64, bool) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, false
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks of 10 ms.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, false
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	cpu := time.Duration(utime+stime) * 10 * time.Millisecond

	var rssMB float64
	if status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		sc := bufio.NewScanner(status)
		for sc.Scan() {
			if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				n, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 64)
				rssMB = n / 1024
			}
		}
		status.Close()
	}
	return cpu, rssMB, true
}

// inProcess serves the same handler from this process; the smoke test's
// stand-in for the daemon.
type inProcess struct {
	cfg server.Config
	svc *server.Service
	ts  *httptest.Server
}

func startInProcess(dataDir string) (*inProcess, error) {
	p := &inProcess{cfg: server.Config{DataDir: dataDir, DefaultTimeout: 30 * time.Second}}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *inProcess) start() error {
	svc, err := server.Open(p.cfg)
	if err != nil {
		return err
	}
	p.svc, p.ts = svc, httptest.NewServer(svc.Handler())
	return nil
}

func (p *inProcess) URL() string { return p.ts.URL }

func (p *inProcess) Stop() {
	if p.ts != nil {
		p.ts.Close()
		_ = p.svc.Close() // the smoke test's data directory is removed next
		p.ts = nil
	}
}

// Crash abandons the service without closing it, as a killed process would.
func (p *inProcess) Crash() error {
	p.ts.Close()
	return p.start()
}

func (p *inProcess) Proc() (time.Duration, float64, bool) { return 0, 0, false }

// scrapeMetrics reads GET /metrics into series → value.
func scrapeMetrics(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumSeries adds every series whose name starts with prefix and contains
// all of the given label fragments.
func sumSeries(m map[string]float64, prefix string, labels ...string) float64 {
	var sum float64
next:
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(k, l) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

func dirSizeMB(dir string) float64 {
	if dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // files vanish under compaction; size what is there
	})
	return float64(total) / (1 << 20)
}
