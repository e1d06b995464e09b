package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securecache/internal/kvstore"
)

// proc is one server process of the cluster under test.
type proc struct {
	name string
	args []string
	log  string
	cmd  *exec.Cmd
	addr string
}

// start launches the process with its output in p.log; waitListening
// then finds the bound address there.
func (p *proc) start(bin string, env []string) error {
	f, err := os.Create(p.log)
	if err != nil {
		return err
	}
	defer f.Close()
	cmd := exec.Command(bin, p.args...)
	cmd.Stdout = f
	cmd.Stderr = f
	cmd.Env = env
	// A benchmark that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.addr = ""
	return nil
}

// waitListening polls the log for "listening on ADDR".
func (p *proc) waitListening(deadline time.Time) error {
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(p.log)
		if err != nil {
			return err
		}
		if i := bytes.Index(b, []byte("listening on ")); i >= 0 {
			rest := b[i+len("listening on "):]
			if j := bytes.IndexAny(rest, ",\n"); j > 0 {
				p.addr = string(rest[:j])
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s did not start listening: %s", p.name, tail(p.log))
}

// kill stops the process with SIGKILL and reaps it.
func (p *proc) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine; Wait reaps either way
	_ = p.cmd.Wait()
	p.cmd = nil
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// cluster is n kvnode processes behind one kvfront process, built from
// the tree under test.
type cluster struct {
	spec     *spec
	dir      string
	bin      string
	nodeEnv  []string
	frontEnv []string
	nodes    []*proc
	front    *proc
}

func newCluster(s *spec, dir, bin string) *cluster {
	env := func(gomaxprocs int) []string {
		return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	return &cluster{spec: s, dir: dir, bin: bin, nodeEnv: env(nodeProcs), frontEnv: env(frontProcs)}
}

// boot starts the backends, then the frontend, and returns once every
// process has bound its listener.
func (c *cluster) boot() error {
	if err := os.RemoveAll(c.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	deadline := time.Now().Add(20 * time.Second)
	c.nodes = make([]*proc, nodes)
	for i := range c.nodes {
		args := []string{"-id", strconv.Itoa(i), "-listen", "127.0.0.1:0"}
		if c.spec.dataDir {
			args = append(args, "-data-dir", filepath.Join(c.dir, fmt.Sprintf("node%d", i)))
		}
		args = append(args, c.spec.nodeFlags...)
		p := &proc{name: fmt.Sprintf("kvnode%d", i), args: args, log: filepath.Join(c.dir, fmt.Sprintf("node%d.log", i))}
		c.nodes[i] = p
		if err := p.start(filepath.Join(c.bin, "kvnode"), c.nodeEnv); err != nil {
			return err
		}
	}
	addrs := make([]string, nodes)
	for i, p := range c.nodes {
		if err := p.waitListening(deadline); err != nil {
			return err
		}
		// Restarts must come back on the same address the frontend knows.
		p.args[3] = p.addr
		addrs[i] = p.addr
	}
	args := []string{
		"-listen", "127.0.0.1:0",
		"-backends", strings.Join(addrs, ","),
		"-replication", strconv.Itoa(replication),
		"-seed", strconv.FormatUint(partitionSeed, 10),
		"-k", strconv.FormatFloat(kParam, 'f', -1, 64),
		"-cache-size", strconv.Itoa(c.spec.cacheSize),
		"-write-quorum", strconv.Itoa(writeQuorum),
	}
	args = append(args, extraFront...)
	c.front = &proc{name: "kvfront", args: args, log: filepath.Join(c.dir, "front.log")}
	if err := c.front.start(filepath.Join(c.bin, "kvfront"), c.frontEnv); err != nil {
		return err
	}
	if err := c.front.waitListening(deadline); err != nil {
		return err
	}
	cl := kvstore.NewClient(c.front.addr)
	defer cl.Close()
	for {
		if err := cl.Ping(); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("kvfront not answering: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopAndClean stops every process and removes the run directory.
func (c *cluster) stopAndClean() {
	if c.front != nil {
		c.front.kill()
	}
	for _, p := range c.nodes {
		p.kill()
	}
	_ = os.RemoveAll(c.dir) // leftover data in an ignored build dir is harmless
}

func (c *cluster) procs() []*proc { return append([]*proc{c.front}, c.nodes...) }

func (c *cluster) nodeAddrs() []string {
	out := make([]string, len(c.nodes))
	for i, p := range c.nodes {
		out[i] = p.addr
	}
	return out
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clkTck = 100

// cpuSeconds reads user+system CPU of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces: fields start after the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSMB reads VmHWM (peak resident set) of pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
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

// cpuOf sums the CPU seconds of the given processes.
func cpuOf(ps []*proc) (float64, error) {
	var sum float64
	for _, p := range ps {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// counters reads named counters from each address through the Stats op.
func counters(addrs []string, names ...string) ([]map[string]uint64, error) {
	out := make([]map[string]uint64, len(addrs))
	for i, a := range addrs {
		cl := kvstore.NewClient(a)
		st, err := cl.Stats()
		cl.Close()
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", a, err)
		}
		m := make(map[string]uint64, len(names))
		for _, n := range names {
			m[n] = kvstore.StatCounter(st, n)
		}
		out[i] = m
	}
	return out, nil
}
