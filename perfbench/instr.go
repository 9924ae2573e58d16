package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The engine child's CPU work is counted in user-space instructions
// retired, read from a hardware performance counter (perf_event_open).
// On a shared 2-vCPU VM the child's CPU seconds for the same work moved
// by two fifths within minutes as the host's load changed, and a fixed
// CPU-bound loop slowed by a fifth over the same minutes. The
// instruction count of the same work does not depend on how fast the
// host runs it: while the child's CPU moved between 0.39 and 0.53 cores,
// its instruction rate moved by 1.5%.
//
// Counting has a price. Each context switch of a counted thread
// reprograms the counter, which traps to the hypervisor: on push-fanout,
// counting raised the child's CPU from 0.27-0.30 to 0.41-0.42 cores and
// t2a_p50_ms from 0.91-0.97 to 1.09-1.11 ms. So only a pass of its own
// counts (bench.go); the passes that time latency run uncounted.
//
// A counter opened on a running process sees only threads created after
// it, and the Go runtime has started several by the time main runs. So
// the child opens the counter on its own thread, with inherit set, and
// re-executes itself: every thread of the new image descends from that
// thread and is counted. The counter's descriptor crosses the exec in
// instrEnv.

const instrEnv = "PERFBENCH_INSTR_FD"

// instrPath is the child endpoint that opens and closes the counted
// window.
const instrPath = "/bench/instructions"

// perfEventAttr is struct perf_event_attr up to PERF_ATTR_SIZE_VER5.
type perfEventAttr struct {
	typ, size        uint32
	config           uint64
	samplePeriod     uint64
	sampleType       uint64
	readFormat       uint64
	flags            uint64
	wakeupEvents     uint32
	bpType           uint32
	config1, config2 uint64
	branchSampleType uint64
	sampleRegsUser   uint64
	sampleStackUser  uint32
	clockID          int32
	sampleRegsIntr   uint64
	auxWatermark     uint32
	sampleMaxStack   uint16
	_                uint16
}

const (
	perfTypeHardware      = 0
	perfCountInstructions = 1
	perfFlagInherit       = 1 << 1
	perfFlagExcludeKernel = 1 << 5 // unprivileged processes may count user space only
	perfFlagExcludeHV     = 1 << 6
	perfFormatEnabled     = 1 << 0
	perfFormatRunning     = 1 << 1
)

// reexecCounted opens the instruction counter on the calling thread and
// re-executes this binary with the same arguments. It returns only on
// failure.
func reexecCounted() error {
	runtime.LockOSThread() // the counter belongs to this thread, which must exec
	attr := perfEventAttr{
		typ:        perfTypeHardware,
		config:     perfCountInstructions,
		readFormat: perfFormatEnabled | perfFormatRunning,
		flags:      perfFlagInherit | perfFlagExcludeKernel | perfFlagExcludeHV,
	}
	attr.size = uint32(unsafe.Sizeof(attr))
	// pid 0, cpu -1: this thread on any CPU. No close-on-exec flag, so
	// the descriptor survives the exec below.
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&attr)), 0, ^uintptr(0), ^uintptr(0), 0, 0)
	if errno != 0 {
		return fmt.Errorf("perf_event_open(instructions): %w (the benchmark needs hardware counters for user space; see kernel.perf_event_paranoid)", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", instrEnv, fd))
	return syscall.Exec(exe, os.Args, env)
}

// instrCounter reads the descriptor reexecCounted passed on.
//
// A counted window starts just after a forced garbage collection and
// ends just after the last collection that ended inside it, so it spans
// whole collection cycles. The child collects every 1 to 3 s, and one
// cycle costs from about a seventh of a second's instructions
// (poll-steady) to about two thirds (push-durable). Cut at arbitrary
// times, a window of a few seconds holds one cycle more or less by
// chance: on push-durable, five seeds read 0.52 or 0.60 Ginstr/s and
// nothing in between. Over whole cycles every window pays the
// collections its own allocation caused.
type instrCounter struct {
	fd    int
	epoch time.Time

	mu      sync.Mutex
	cycle   uint64      // collections ended when the window started
	lastGC  instrSample // read at the end of the latest collection
	gcCycle uint64      // which collection lastGC followed
}

// instrSample is the count at one moment, with the moment in seconds
// since the counter was inherited.
type instrSample struct {
	Instructions float64 `json:"instructions"`
	Seconds      float64 `json:"seconds"`
}

func inheritedInstrCounter() (*instrCounter, bool) {
	fd, err := strconv.Atoi(os.Getenv(instrEnv))
	if err != nil {
		return nil, false
	}
	c := &instrCounter{fd: fd, epoch: time.Now()}
	c.armGC()
	return c, true
}

// gcSentinel is garbage as soon as it is made; its finalizer runs after
// the collection that finds it, and arms the next one. It holds a
// pointer so that it is not packed with other tiny objects.
type gcSentinel struct{ _ *byte }

func (c *instrCounter) armGC() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if s, err := c.sample(); err == nil {
			n := gcCycles()
			c.mu.Lock()
			c.lastGC, c.gcCycle = s, n
			c.mu.Unlock()
		}
		c.armGC()
	})
}

// gcCycles returns how many collections have ended.
func gcCycles() uint64 {
	m := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}

// sample returns the instructions counted so far in every thread. When
// the kernel had to share the hardware counter, the count is scaled up
// by the share of time it ran.
func (c *instrCounter) sample() (instrSample, error) {
	var buf [24]byte
	n, err := syscall.Read(c.fd, buf[:])
	if err != nil {
		return instrSample{}, err
	}
	if n != len(buf) {
		return instrSample{}, fmt.Errorf("short counter read: %d bytes", n)
	}
	value := float64(binary.LittleEndian.Uint64(buf[0:]))
	enabled := float64(binary.LittleEndian.Uint64(buf[8:]))
	running := float64(binary.LittleEndian.Uint64(buf[16:]))
	if running > 0 && running < enabled {
		value *= enabled / running
	}
	return instrSample{Instructions: value, Seconds: time.Since(c.epoch).Seconds()}, nil
}

// window opens (start) or closes the counted window and returns the
// sample at its edge. Opening forces a collection; closing returns the
// sample taken after the last collection since the opening, or forces
// one when none has ended.
func (c *instrCounter) window(start bool) (instrSample, error) {
	if start {
		runtime.GC()
		s, err := c.sample()
		c.mu.Lock()
		c.cycle = gcCycles()
		c.mu.Unlock()
		return s, err
	}
	c.mu.Lock()
	s, ended := c.lastGC, c.gcCycle > c.cycle
	c.mu.Unlock()
	if ended {
		return s, nil
	}
	runtime.GC()
	return c.sample()
}

// serveInstructions answers instrPath?edge=start|end with the sample at
// that edge of the counted window and passes every other request to
// next.
func (c *instrCounter) serveInstructions(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != instrPath {
			next.ServeHTTP(w, r)
			return
		}
		s, err := c.window(r.URL.Query().Get("edge") == "start")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(s)
	})
}
