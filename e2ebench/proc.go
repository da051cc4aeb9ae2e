package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"distqa/internal/live"
)

// clockTicksPerSecond is the unit of utime/stime in /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTicksPerSecond = 100

// hostProc is one running cluster host process.
type hostProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	Nodes []string `json:"nodes"`
	Gate  string   `json:"gate"`
	// setup is launch-to-ready: every node reports a complete shard map and
	// the gateway answers its health check.
	setup time.Duration
}

// launchHost starts the host binary and waits until the cluster is ready.
func launchHost(bin string, caches bool) (*hostProc, error) {
	cmd := exec.Command(bin, "-caches="+strconv.FormatBool(caches))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer outR.Close()
	cmd.Stdout = outW
	start := time.Now()
	if err := cmd.Start(); err != nil {
		outW.Close()
		return nil, fmt.Errorf("start host: %w", err)
	}
	outW.Close()
	h := &hostProc{cmd: cmd, stdin: stdin}
	if err := h.awaitReady(outR, start); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

func (h *hostProc) awaitReady(out io.Reader, start time.Time) error {
	line := make(chan error, 1)
	go func() {
		b, err := bufio.NewReader(out).ReadBytes('\n')
		if err == nil {
			err = json.Unmarshal(b, h)
		}
		line <- err
	}()
	deadline := start.Add(60 * time.Second)
	select {
	case err := <-line:
		if err != nil {
			return fmt.Errorf("host ready line: %w", err)
		}
	case <-time.After(time.Until(deadline)):
		return errors.New("host did not come up within 60s")
	}
	for _, addr := range h.Nodes {
		for {
			st, err := live.QueryStatus(addr, 2*time.Second)
			if err == nil && st.Shard != nil && st.Shard.Complete {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s never reported a complete shard map", addr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(h.Gate + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return errors.New("gateway never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	client.CloseIdleConnections()
	h.setup = time.Since(start)
	return nil
}

// stop closes the host's standard input, which shuts the cluster down, and
// waits for the process to exit (killing it after 20s).
func (h *hostProc) stop() error {
	h.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = h.cmd.Process.Kill()
		<-done
		return errors.New("host did not exit within 20s; killed")
	}
}

func (h *hostProc) pid() int { return h.cmd.Process.Pid }

// cpuTicks returns a process's user+system CPU time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// machineTicks returns the CPU time of the whole machine in clock ticks, from
// the first line of /proc/stat: the total over every state, and the part the
// hypervisor gave to other guests while this one wanted to run (steal).
func machineTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so it is left out of the total.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("unexpected first line in /proc/stat")
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
