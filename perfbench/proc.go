package main

// Server processes: start one, wait until it listens, signal it, stop
// it gracefully, read its peak RSS.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

type proc struct {
	cmd   *exec.Cmd
	lines chan string // the server's stdout, closed at EOF
	addr  string
	ended bool
}

// CPU placement of the served workloads. The driver runs on driverCPU.
// Left to the scheduler, the placement differed from run to run and so
// did the round trip.
const driverCPU = 0

// serverCPU returns the CPU a server runs on while conns connections
// drive it. With two, the server gets the other core, so the client
// and the server each own one. With one, only one of them runs at a
// time (the loop waits for each reply), so they share the driver's
// core: a virtual CPU that idles between requests loses its physical
// core to the host's other guests, and waking it again cost the
// served-spill p90 up to twice its value (README.md).
func serverCPU(conns int) int {
	if conns == 1 {
		return driverCPU
	}
	return 1
}

// pinned reports whether this run pins (see pinDriver).
var pinned bool

// pinDriver moves every thread of this process onto driverCPU. Threads
// started later, and child processes, inherit the affinity of the
// thread that starts them. Hosts with fewer than two CPUs are left
// alone.
func pinDriver() error {
	if runtime.NumCPU() < 2 {
		return nil
	}
	if err := pinTasks("self", driverCPU); err != nil {
		return err
	}
	pinned = true
	// One P per CPU the process runs on: a second P on one core only
	// adds spinning threads that take turns on it. Servers get the same
	// (startServer).
	runtime.GOMAXPROCS(1)
	return nil
}

// pinTasks moves every thread of process pid ("self" for this one)
// onto cpu.
func pinTasks(pid string, cpu int) error {
	// Twice, to catch a thread started while the first pass ran.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/" + pid + "/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return err
			}
			if err := setAffinity(tid, cpu); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("pin thread %d: %w", tid, err)
			}
		}
	}
	return nil
}

// setAffinity restricts thread tid to one CPU.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// place moves the server onto its CPU for a workload of conns
// connections (see serverCPU).
func (p *proc) place(conns int) error {
	if !pinned {
		return nil
	}
	return pinTasks(strconv.Itoa(p.cmd.Process.Pid), serverCPU(conns))
}

// startServer runs bin with args and waits for "listening on <addr>".
// The server starts on the driver's CPU; place moves it.
func startServer(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	// The server dies with the driver, however the driver ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Sized well past the few lines a server prints, so the reader
	// never blocks before the driver collects them.
	p := &proc{cmd: cmd, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	line, err := p.expect("listening on ", 300*time.Second)
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("%s: %w", bin, err)
	}
	p.addr = strings.TrimPrefix(line, "listening on ")
	return p, nil
}

// expect returns the next stdout line starting with prefix.
func (p *proc) expect(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("server exited before printing %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("server printed no %q within %v", prefix, timeout)
		}
	}
}

// signal sends sig and returns the server's next line with prefix.
func (p *proc) signal(sig syscall.Signal, prefix string) (string, error) {
	if err := p.cmd.Process.Signal(sig); err != nil {
		return "", err
	}
	return p.expect(prefix, 60*time.Second)
}

// stop drains the server with SIGTERM and requires a clean exit.
func (p *proc) stop() error {
	_, err := p.signal(syscall.SIGTERM, "drained clean")
	if err != nil {
		p.kill()
		return err
	}
	for range p.lines {
	}
	p.ended = true
	return p.cmd.Wait()
}

// kill ends the server at once; a no-op once it has ended.
func (p *proc) kill() {
	if p.ended {
		return
	}
	p.ended = true
	p.cmd.Process.Kill()
	for range p.lines {
	}
	p.cmd.Wait()
}

// waitIdle returns once the server has used no CPU for two successive
// polls, or when timeout passes.
func (p *proc) waitIdle(timeout time.Duration) error {
	const poll = 100 * time.Millisecond
	last, idle := int64(-1), 0
	for end := time.Now().Add(timeout); time.Now().Before(end) && idle < 2; time.Sleep(poll) {
		used, err := p.cpuTicks()
		if err != nil {
			return err
		}
		if used == last {
			idle++
		} else {
			idle = 0
		}
		last = used
	}
	return nil
}

// cpuTicks reads the server's user plus system CPU time in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name; utime and stime
	// are the 14th and 15th fields of the line.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// peakRSSMiB reads the server's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
