package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/resp"
)

// daemon is one cpacached subprocess.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited

	mu  sync.Mutex
	log []string // the daemon's last stderr lines, for diagnostics
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon execs cpacached on a free loopback port and returns once it
// logs its listen address.
func startDaemon(bin string, gomaxprocs int, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cpacached: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if len(d.log) == 20 {
				d.log = d.log[1:]
			}
			d.log = append(d.log, line)
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("cpacached exited before listening (%v): %s", d.err, d.lastLog())
	case <-time.After(ioTimeout):
		d.stop()
		return nil, fmt.Errorf("cpacached did not listen within %v: %s", ioTimeout, d.lastLog())
	}
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, " | ")
}

// stop drains the daemon with SIGTERM, kills it if the drain stalls, and
// waits for it. A clean drain (exit 0 after "cpacached drained") is nil.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("cpacached did not drain within 15s")
	}
	if d.err != nil {
		return fmt.Errorf("cpacached exit: %v: %s", d.err, d.lastLog())
	}
	if !strings.Contains(d.lastLog(), "cpacached drained") {
		return errors.New("cpacached exited without logging its drain")
	}
	return nil
}

// cpuTime is the daemon's CPU time so far: the sum over its threads of
// the nanosecond run time in /proc/<pid>/task/<tid>/schedstat, which,
// unlike /proc/<pid>/stat's 10 ms ticks, resolves a short window.
func (d *daemon) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// info is the part of cpacached's INFO reply the benchmark reads.
type info struct {
	fields  map[string]string
	tenants []map[string]string // tenantN:k=v,... lines in tenant order
}

func (in info) num(key string) float64 {
	v, _ := strconv.ParseFloat(in.fields[key], 64)
	return v
}

func (in info) tenantNum(t int, key string) float64 {
	v, _ := strconv.ParseFloat(in.tenants[t][key], 64)
	return v
}

// fetchInfo runs INFO on a fresh connection (AUTH'd when a password is
// given, as multi-tenant daemons require).
func fetchInfo(addr, password string) (info, error) {
	g := &gen{t: &tenantShape{password: password}}
	c, err := dialKV(addr, g, nil)
	if err != nil {
		return info{}, err
	}
	defer c.nc.Close()
	c.nc.SetDeadline(time.Now().Add(ioTimeout))
	c.w.WriteCommand([]byte("INFO"))
	if err := c.w.Flush(); err != nil {
		return info{}, err
	}
	rep, err := c.r.read()
	if err != nil {
		return info{}, err
	}
	if rep.kind != resp.KindBulk {
		return info{}, fmt.Errorf("INFO: unexpected reply %q", rep.str)
	}
	in := info{fields: map[string]string{}}
	for _, line := range strings.Split(string(rep.str), "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.HasPrefix(k, "tenant") && strings.Contains(v, "=") {
			m := map[string]string{}
			for _, kv := range strings.Split(v, ",") {
				if a, b, ok := strings.Cut(kv, "="); ok {
					m[a] = b
				}
			}
			in.tenants = append(in.tenants, m)
			continue
		}
		in.fields[k] = v
	}
	return in, nil
}
