package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The reference host speed: what the calibration loop below did per wall
// second and per CPU second on the 2-core x86-64 VM (Go 1.24) the
// benchmark was defined on. Time metrics are scaled to it.
const (
	refCalWall = 13400.0 // calibration rounds per second, both cores
	refCalCPU  = 6800.0  // calibration rounds per CPU second
)

// calShare is how many times longer a slice is than each calibration.
const calShare = 20

// calBufBytes is the memory each calibration goroutine reads and writes
// at random: about the heap the workloads allocate through, so the loop
// feels the shared caches and memory bus as the workloads do. The buffers
// are mapped outside the Go heap: on it they would raise the collector's
// heap target and so cut the workloads' collections by a factor of four.
const calBufBytes = 4 << 20

// hostSpeed is how fast this host ran the calibration loop at one moment.
type hostSpeed struct {
	wall float64 // rounds per wall second, with every processor busy
	cpu  float64 // rounds per CPU second
}

func (s hostSpeed) mean(t hostSpeed) hostSpeed {
	return hostSpeed{(s.wall + t.wall) / 2, (s.cpu + t.cpu) / 2}
}

// wallScale converts a duration or rate measured on this host at speed s
// to the reference host: a duration times wallScale, a rate divided by it.
func (s hostSpeed) wallScale() float64 { return s.wall / refCalWall }

// cpuScale does the same for CPU time.
func (s hostSpeed) cpuScale() float64 { return s.cpu / refCalCPU }

// calibrator measures the host's speed with a fixed loop of standard
// library work shaped like a verdict's: Ed25519 sign and verify, SHA-256
// and copies over a buffer about the size of the workloads' heap. The
// repository's code never runs in it, so a change to the repository does
// not move it; a shared host that runs slower for a while (busy sibling
// hyperthreads, lower clocks, stolen time) slows it as it slows the
// workloads. Measured between the slices of a run, it takes the host's
// speed out of the time metrics.
type calibrator struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	bufs [][]byte
}

func newCalibrator() (*calibrator, error) {
	seed := make([]byte, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	c := &calibrator{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		buf, err := syscall.Mmap(-1, 0, calBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("calibration buffer: %w", err)
		}
		c.bufs = append(c.bufs, buf)
	}
	return c, nil
}

func (c *calibrator) close() {
	for _, buf := range c.bufs {
		// Unmapping a mapping Mmap returned fails only on a bad address.
		_ = syscall.Munmap(buf)
	}
	c.bufs = nil
}

// measure runs the loop on every processor for d, after collecting the
// heap so that no collection the workload started runs beside it.
func (c *calibrator) measure(d time.Duration) hostSpeed {
	runtime.GC()
	var wg sync.WaitGroup
	rounds := make([]int, len(c.bufs))
	cpu0 := cpuTime()
	t0 := time.Now()
	end := t0.Add(d)
	for i := range c.bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(end) {
				c.round(c.bufs[i], uint64(rounds[i]))
				rounds[i]++
			}
		}(i)
	}
	wg.Wait()
	wall, cpu := time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
	var n float64
	for _, r := range rounds {
		n += float64(r)
	}
	return hostSpeed{wall: ratio(n, wall), cpu: ratio(n, cpu)}
}

// round is one unit of calibration work on buf.
func (c *calibrator) round(buf []byte, x uint64) {
	msg := buf[:64]
	sig := ed25519.Sign(c.priv, msg)
	if !ed25519.Verify(c.pub, msg, sig) {
		panic("calibration signature does not verify")
	}
	h := sha256.New()
	for k := 0; k < 16; k++ {
		x = mix(x, uint64(k))
		off := int(x % uint64(len(buf)-1024))
		h.Write(buf[off : off+1024])
		off = int((x >> 32) % uint64(len(buf)-64))
		copy(buf[off:off+64], sig)
	}
	copy(msg, h.Sum(nil))
}
