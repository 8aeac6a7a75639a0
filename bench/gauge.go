package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host gauge measures how fast this machine runs ingest-shaped work
// while a workload runs. On a shared host, neighbours slow the cores by 20
// to 40 % for seconds to minutes at a time, and hkd's rate and CPU cost
// move with them. The gauge times a fixed reference loop shaped like
// hkd's ingest path: write a 4000-byte frame of 5-byte records to a
// socket, read it back, and hash each record into a 64 KB table of
// counters. The loop is code of this package only, so it costs the same
// on every commit under test; a change in its cost is a change in the
// host. It runs one sample every gaugeEvery on its own OS thread and is
// timed in that thread's CPU time, so waiting for a core does not count;
// neither does time the host takes the guest's CPUs away, which the
// kernel counts as steal and cpuTicks reads.
const (
	gaugeEvery   = 25 * time.Millisecond
	gaugeWarm    = 4    // untimed frames before each sample
	gaugeFrames  = 16   // timed frames per sample
	gaugeFrame   = 4000 // bytes per frame
	gaugeRecord  = 5    // bytes per record
	gaugeTableKB = 64
	// gaugeNominal is the reference loop's mean cost, in ns per record,
	// on an idle 2-vCPU Xeon VM at 2.0 GHz in a quiet hour. Host-scaled
	// metrics read as they would on a host where the loop costs this.
	gaugeNominal = 8.0
)

// hostGauge samples the reference loop until stop closes.
type hostGauge struct {
	samples []float64 // ns per record, one per sample
	sink    uint64    // keeps the hashing from being optimised away
	done    chan struct{}
	err     error
}

func startGauge(stop <-chan struct{}) *hostGauge {
	g := &hostGauge{done: make(chan struct{})}
	go func() {
		defer close(g.done)
		g.err = g.run(stop)
	}()
	return g
}

// wait returns the samples once the gauge has stopped.
func (g *hostGauge) wait() ([]float64, error) {
	<-g.done
	return g.samples, g.err
}

func (g *hostGauge) run(stop <-chan struct{}) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return err
	}
	defer syscall.Close(fds[0])
	defer syscall.Close(fds[1])
	frame := make([]byte, gaugeFrame)
	for i := 0; i+gaugeRecord <= len(frame); i += gaugeRecord {
		frame[i] = gaugeRecord - 1
		binary.LittleEndian.PutUint32(frame[i+1:], uint32(i)*2654435761)
	}
	buf := make([]byte, gaugeFrame)
	table := make([]uint32, gaugeTableKB<<10/4)
	var sink uint64
	tick := time.NewTicker(gaugeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			g.sink = sink
			return nil
		case <-tick.C:
		}
		// The first frames warm the caches the workload's processes
		// evicted while the gauge slept; they are not timed.
		var start int64
		for i := range gaugeWarm + gaugeFrames {
			if i == gaugeWarm {
				start = threadCPU()
			}
			if _, err := syscall.Write(fds[0], frame); err != nil {
				return fmt.Errorf("host gauge: %w", err)
			}
			n, err := syscall.Read(fds[1], buf)
			if err != nil {
				return fmt.Errorf("host gauge: %w", err)
			}
			sink = hashRecords(table, buf[:n], sink)
		}
		ns := float64(threadCPU() - start)
		g.samples = append(g.samples, ns/float64(gaugeFrames*gaugeFrame/gaugeRecord))
	}
}

// hashRecords hashes each record's 4-byte key into two counters of table,
// in the manner of a two-row sketch update.
func hashRecords(table []uint32, b []byte, x uint64) uint64 {
	mask := uint64(len(table) - 1)
	for i := 0; i+gaugeRecord <= len(b); i += gaugeRecord {
		h := uint64(binary.LittleEndian.Uint32(b[i+1:])) ^ x
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		table[h&mask]++
		table[(h>>20)&mask]++
		x += h
	}
	return x
}

// cpuTicks reads the machine-wide steal and total ticks from /proc/stat.
func cpuTicks() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// threadCPU is the calling OS thread's CPU time in nanoseconds.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
