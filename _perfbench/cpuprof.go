package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU split folds every profile sample into exactly one bucket, so the
// buckets sum to the profile total.
var cpuBuckets = []string{
	"core", "bitstr", "ba", "baplus", "rs", "merkle", "transport", "adapter",
	"sessmux.merge", "sessmux.demux", "wire",
	"tcpnet.write", "tcpnet.read", "tcpnet.sort",
	"gc", "sched", "harness", "other",
}

// gcFuncs mark a sample as garbage-collector work wherever they appear on
// its stack: background marking, assists, sweeping and scavenging.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.markroot":          true,
	"runtime.gcDrain":           true,
	"runtime.gcDrainN":          true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
	"runtime.(*mheap).reclaim":  true,
	"runtime.scanobject":        true,
	"runtime.wbBufFlush":        true,
	"runtime.gcWriteBarrier":    true,
}

// schedFuncs mark scheduler work: parking, waking and finding goroutines
// to run, and the OS-thread handoffs behind them.
var schedFuncs = map[string]bool{
	"runtime.schedule":       true,
	"runtime.findRunnable":   true,
	"runtime.park_m":         true,
	"runtime.goschedImpl":    true,
	"runtime.gopreempt_m":    true,
	"runtime.goexit0":        true,
	"runtime.mcall":          true,
	"runtime.ready":          true,
	"runtime.goready":        true,
	"runtime.wakep":          true,
	"runtime.startm":         true,
	"runtime.stopm":          true,
	"runtime.notewakeup":     true,
	"runtime.notesleep":      true,
	"runtime.newproc":        true,
	"runtime.exitsyscall":    true,
	"runtime.entersyscall":   true,
	"runtime.netpoll":        true,
	"runtime.gopark":         true,
	"runtime.semrelease1":    true,
	"runtime.semacquire1":    true,
	"runtime.notifyListWait": true,
	"runtime.lock2":          true,
	"runtime.unlock2":        true,
}

// bucketOf attributes one stack (leaf first). GC work anywhere on the
// stack is gc. Otherwise the innermost frame that is either scheduler
// work or code of this repository decides; standard-library frames (math/big,
// crypto, net, syscall) are charged to the repository code that called
// them.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFuncs[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		if schedFuncs[fn] {
			return "sched"
		}
		if b, ok := repoBucket(fn); ok {
			return b
		}
	}
	return "other"
}

// repoBucket maps a function of this repository (or of the benchmark) to
// its bucket.
func repoBucket(fn string) (string, bool) {
	const internal = "convexagreement/internal/"
	switch {
	case strings.HasPrefix(fn, "main."):
		return "harness", true
	case strings.HasPrefix(fn, "convexagreement."):
		return "adapter", true
	case !strings.HasPrefix(fn, internal):
		return "", false
	}
	rest := fn[len(internal):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other", true
	}
	pkg, name := rest[:dot], rest[dot+1:]
	switch pkg {
	case "core", "highcostca":
		return "core", true
	case "bitstr", "ba", "baplus", "merkle", "wire", "transport":
		return pkg, true
	case "rs", "gf16", "pool":
		return "rs", true
	case "hashing":
		return "merkle", true
	case "sessmux":
		for _, f := range []string{"(*Mux).demux", "unframe", "senderCounts", "shedInto"} {
			if strings.HasPrefix(name, f) {
				return "sessmux.demux", true
			}
		}
		return "sessmux.merge", true
	case "tcpnet":
		switch {
		case strings.HasPrefix(name, "sortMessages"):
			return "tcpnet.sort", true
		case strings.Contains(name, "readLoop"), strings.Contains(name, "countingReader"),
			strings.Contains(name, "awaitRound"), strings.Contains(name, "handleInbound"),
			strings.Contains(name, "acceptLoop"), strings.Contains(name, "linkLost"):
			return "tcpnet.read", true
		}
		return "tcpnet.write", true
	}
	return "other", true
}

// cpuSplit folds a gzipped pprof CPU profile into cpuBuckets, in
// nanoseconds. total is the profile's sum of sampled CPU time.
func cpuSplit(raw []byte) (split map[string]int64, total int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	split = make(map[string]int64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		split[b] = 0
	}
	var stack []string
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, 0, errors.New("cpu profile: sample without a time value")
		}
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		ns := s.values[1]
		split[bucketOf(stack)] += ns
		total += ns
	}
	return split, total, nil
}

// profile is the part of profile.proto the split needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, leaf first
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a pprof protobuf: samples, locations, functions
// and the string table.
func parseProfile(b []byte) (*profile, error) {
	type loc struct {
		id    uint64
		funcs []uint64
	}
	var (
		samples []sample
		locs    []loc
		fnName  = map[uint64]int64{}
		strs    []string
	)
	err := walk(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walk(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					return packed(w, v, sb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(w, v, sb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var l loc
			err := walk(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					l.id = v
				case 4: // line
					return walk(sb, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locs))}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, f := range l.funcs {
			if i := fnName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[l.id] = names
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// walk calls fn for every field of one protobuf message: varints pass v,
// length-delimited fields pass sub. Fixed-width fields are skipped.
func walk(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// packed reads a repeated varint field in either encoding.
func packed(wire int, v uint64, sub []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errProto
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}
