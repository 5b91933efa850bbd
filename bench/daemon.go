package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"geoblocks/internal/store"
)

const (
	daemonStartTimeout = 60 * time.Second
	daemonStopTimeout  = 15 * time.Second
	daemonLogTail      = 40 // stderr lines kept for a failure report
)

// daemon is one running geoblocksd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	// logsDone closes once the child's stderr hit EOF; cmd.Wait may only
	// run after that.
	logsDone chan struct{}
	mu       sync.Mutex
	tail     []string
}

// startDaemon executes bin with args on an ephemeral port and returns
// once GET /v1/datasets answers 200. The returned duration is the
// set-up time a user waits: exec to first 200.
func startDaemon(hc *http.Client, bin string, args ...string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, logsDone: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logsDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > daemonLogTail {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			// "serving N dataset(s) on 127.0.0.1:PORT" names the port.
			if _, a, ok := strings.Cut(line, "dataset(s) on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logsDone:
		_ = cmd.Wait()
		return nil, 0, fmt.Errorf("%s exited during start-up:\n%s", bin, d.logTail())
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("%s did not start listening within %v:\n%s", bin, daemonStartTimeout, d.logTail())
	}
	for {
		resp, err := hc.Get(d.base + "/v1/datasets")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > daemonStartTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("%s never answered /v1/datasets: %v", bin, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop shuts the daemon down gracefully (SIGTERM, as an operator would)
// and waits for it; a daemon that ignores the signal is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logsDone:
		_ = d.cmd.Wait()
	case <-time.After(daemonStopTimeout):
		d.kill()
	}
}

// kill is kill -9: no drain, no flush, so only what the daemon already
// fsynced survives.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logsDone
	_ = d.cmd.Wait()
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// conn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes requests by hand and reads responses with http.ReadResponse:
// net/http's client costs several times the CPU per request, which on a
// two-core box comes out of the daemon's share and would make the
// hottest workload measure the generator.
type conn struct {
	addr string // host:port
	c    net.Conn
	r    *bufio.Reader
	buf  []byte
}

// post sends one POST and returns the response status and body. After
// a transport error the connection is dropped and the next call redials.
func (k *conn) post(path, ctype string, body []byte) (int, []byte, error) {
	if k.c == nil {
		c, err := net.DialTimeout("tcp", k.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		k.c, k.r = c, bufio.NewReader(c)
	}
	k.buf = append(k.buf[:0], "POST "...)
	k.buf = append(k.buf, path...)
	k.buf = append(k.buf, " HTTP/1.1\r\nHost: "...)
	k.buf = append(k.buf, k.addr...)
	k.buf = append(k.buf, "\r\nContent-Type: "...)
	k.buf = append(k.buf, ctype...)
	k.buf = append(k.buf, "\r\nContent-Length: "...)
	k.buf = strconv.AppendInt(k.buf, int64(len(body)), 10)
	k.buf = append(k.buf, "\r\n\r\n"...)
	k.buf = append(k.buf, body...)
	status, out, err := k.roundTrip()
	if err != nil {
		k.c.Close()
		k.c = nil
	}
	return status, out, err
}

func (k *conn) roundTrip() (int, []byte, error) {
	if err := k.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := k.c.Write(k.buf); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.r, nil)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, err
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
	}
}

// requestTimeout bounds one request; a daemon that takes longer has
// failed it.
const requestTimeout = 60 * time.Second

// call performs one control-plane request (statistics, snapshots, answer
// checks) through net/http and returns status and body. An empty ctype
// sends a GET.
func call(hc *http.Client, url, ctype string, body []byte) (int, []byte, error) {
	var resp *http.Response
	var err error
	if ctype == "" {
		resp, err = hc.Get(url)
	} else {
		resp, err = hc.Post(url, ctype, bytes.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// callJSON performs a request that must answer 200 and decodes its body.
func callJSON(hc *http.Client, url, ctype string, body []byte, into any) error {
	status, out, err := call(hc, url, ctype, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, status, bytes.TrimSpace(out))
	}
	return json.Unmarshal(out, into)
}

// daemonStats is the part of GET /v1/stats the bench reads: the taxi
// dataset's counters and, under -mmap, the residency manager's.
type daemonStats struct {
	Datasets  []store.DatasetStats  `json:"datasets"`
	Residency *store.ResidencyStats `json:"residency"`
}

func fetchStats(hc *http.Client, base string) (store.DatasetStats, store.ResidencyStats, error) {
	var st daemonStats
	if err := callJSON(hc, base+"/v1/stats", "", nil, &st); err != nil {
		return store.DatasetStats{}, store.ResidencyStats{}, err
	}
	if len(st.Datasets) != 1 {
		return store.DatasetStats{}, store.ResidencyStats{}, fmt.Errorf("daemon serves %d datasets, want 1", len(st.Datasets))
	}
	var res store.ResidencyStats
	if st.Residency != nil {
		res = *st.Residency
	}
	return st.Datasets[0], res, nil
}
