package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	ca "convexagreement"
)

// Tag groups: the protocol building block a round's tag path ends in.
const (
	gPhaseKing = iota
	gTurpinCoan
	gBAPlus
	gDispersal
	gOther
	numGroups
)

var groupNames = [numGroups]string{"phaseking", "turpincoan", "baplus", "dispersal", "other"}

// Subprotocols of Π_ℤ: the first path segment that names one.
const (
	sSign = iota
	sEstimate
	sFindPrefix
	sAddLast
	sGetOutput
	numSubs
	sNone = numSubs
)

var subNames = [numSubs]string{"sign", "estimate", "findprefix", "addlast", "getoutput"}

// groupLabels are the goroutine label sets a traced party switches
// between, one per tag group, built once so switching costs no allocation.
var groupLabels = func() [numGroups]context.Context {
	var out [numGroups]context.Context
	for g, name := range groupNames {
		out[g] = pprof.WithLabels(context.Background(), pprof.Labels("layer", "protocol", "tag", name))
	}
	return out
}()

// classify maps a tag path such as "ca/mag/flca/fp/lba/sharerelay" to
// its tag group and subprotocol.
func classify(tag string) (group, sub int) {
	parts := strings.Split(tag, "/")
	switch last := parts[len(parts)-1]; last {
	case "pk1", "pk2", "pk3":
		group = gPhaseKing
	case "tc1", "tc2":
		group = gTurpinCoan
	case "dist", "vote":
		group = gBAPlus
	case "shareout", "sharerelay":
		group = gDispersal
	default:
		group = gOther
	}
	sub = sNone
	for _, seg := range parts {
		switch {
		case seg == "sign":
			sub = sSign
		case seg == "sizeclass" || seg == "blocksize" || (strings.HasPrefix(seg, "len") && len(seg) > 3 && seg[3] >= '0' && seg[3] <= '9'):
			sub = sEstimate
		case seg == "fp" || seg == "fpb":
			sub = sFindPrefix
		case seg == "alb" || seg == "albk":
			sub = sAddLast
		case seg == "go":
			sub = sGetOutput
		default:
			continue
		}
		break
	}
	return group, sub
}

// partyNet is the Transport the benchmark hands to RunParty: the party's
// MuxedTransport, wrapped to count rounds and, in a traced phase, to
// record one compute span and one exchange span per round plus the
// non-self payload bytes by tag.
type partyNet struct {
	mt       *ca.MuxedTransport
	id       int
	rounds   int
	progress *atomic.Int64 // the phase's count of honest rounds
	rec      *partyRec     // nil when untraced
}

// partyRec is one party's trace of one session. Times are nanoseconds
// since the run's epoch. Rounds refer to tags by index, so the per-round
// records hold no pointers for the collector to scan.
type partyRec struct {
	epoch      time.Time
	start, end int64 // the RunParty call, timed by its caller
	last       int64 // exit of the last exchange, or start
	rounds     []roundRec
	tags       []tagAcc         // tags this party sent, in first-use order
	index      map[string]int32 // tag → position in tags
	cur        int32            // the tag looked up last, -1 before any
	heard      uint64           // bit i: a message from party i arrived
	group      int              // label group the goroutine carries
}

// tagAcc is one tag's non-self payload bytes sent by one party.
type tagAcc struct {
	tag   string
	group int
	bytes int64
}

type roundRec struct {
	tag         int32 // first packet's tag; -1 when the party sent nothing
	enter, exit int64 // the Exchange call
	compute     int64 // ns from the previous exit, or RunParty's start, to enter
}

func (rr roundRec) wait() int64 { return rr.exit - rr.enter }

func newPartyRec(epoch time.Time) *partyRec {
	return &partyRec{epoch: epoch, index: make(map[string]int32), cur: -1, group: -1}
}

// tagIndex returns tag's position in r.tags, adding it on first use.
// Consecutive packets and rounds mostly repeat a tag, which costs one
// string comparison instead of a map lookup.
func (r *partyRec) tagIndex(tag string) int32 {
	if r.cur >= 0 && r.tags[r.cur].tag == tag {
		return r.cur
	}
	i, ok := r.index[tag]
	if !ok {
		g, _ := classify(tag)
		i = int32(len(r.tags))
		r.tags = append(r.tags, tagAcc{tag: tag, group: g})
		r.index[tag] = i
	}
	r.cur = i
	return i
}

func (w *partyNet) ID() int { return w.mt.ID() }
func (w *partyNet) N() int  { return w.mt.N() }
func (w *partyNet) T() int  { return w.mt.T() }

func (w *partyNet) Exchange(out []ca.Packet) ([]ca.Message, error) {
	w.rounds++
	w.progress.Add(1)
	r := w.rec
	if r == nil {
		return w.mt.Exchange(out)
	}
	enter := int64(time.Since(r.epoch))
	first := int32(-1)
	for i := range out {
		p := &out[i]
		t := r.tagIndex(p.Tag)
		if first < 0 {
			first = t
		}
		if p.To != w.id {
			r.tags[t].bytes += int64(len(p.Payload))
		}
	}
	if first >= 0 {
		if g := r.tags[first].group; g != r.group {
			r.group = g
			pprof.SetGoroutineLabels(groupLabels[g])
		}
	}
	in, err := w.mt.Exchange(out)
	exit := int64(time.Since(r.epoch))
	for _, m := range in {
		if m.From >= 0 && m.From < 64 {
			r.heard |= 1 << uint(m.From)
		}
	}
	r.rounds = append(r.rounds, roundRec{tag: first, enter: enter, exit: exit})
	return in, err
}

// finish closes the record with the RunParty call's own start and end,
// timed by its caller. Every exchange must lie inside that call and after
// the previous one; then the compute before each exchange, the waits and
// the compute after the last exchange tile the call exactly, so
// proto.compute_ms + proto.wait_ms is the RunParty wall time.
func (r *partyRec) finish(start, end time.Time) error {
	pprof.SetGoroutineLabels(context.Background())
	r.start, r.end = int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch))
	r.last = r.start
	for i := range r.rounds {
		rr := &r.rounds[i]
		if rr.enter < r.last || rr.exit < rr.enter {
			return fmt.Errorf("trace: exchange %d [%d, %d] ns starts before RunParty or the previous exchange (%d ns)", i, rr.enter, rr.exit, r.last)
		}
		rr.compute = rr.enter - r.last
		r.last = rr.exit
	}
	if r.end < r.last {
		return fmt.Errorf("trace: last exchange ends at %d ns, after RunParty returned at %d ns", r.last, r.end)
	}
	return nil
}

// sessionTrace is one traced session's per-layer account, merged over its
// honest parties. Compute and wait are summed over parties; the caller
// divides by the party count for per-party means.
type sessionTrace struct {
	parties        int
	compute, wait  int64 // ns, summed over parties
	groupRounds    [numGroups]int
	groupBytes     [numGroups]int64
	groupCompute   [numGroups]int64
	subRounds      [numSubs]int
	subBytes       [numSubs]int64
	subCompute     [numSubs]int64
	waits          []int32 // every party-round's exchange time, µs
	ledger         map[string]int64
	silent         int // participants no honest party heard from
	observer       int
	observerRounds []roundRec
	partyIDs       []int
	partySpans     [][2]int64 // per honest party: RunParty start, end
	roundTags      []string
}

// mergeTrace folds the honest parties' records of one session. A round's
// tag is the first tag any party sent in it; a round where no party sent
// anything inherits the previous round's tag. The compute before an
// exchange belongs to that exchange's round, and the compute after the
// last exchange to the last round.
func mergeTrace(n int, recs map[int]*partyRec) *sessionTrace {
	st := &sessionTrace{ledger: make(map[string]int64), observer: -1}
	maxRounds := 0
	for _, r := range recs {
		if len(r.rounds) > maxRounds {
			maxRounds = len(r.rounds)
		}
	}
	ids := make([]int, 0, len(recs))
	for id := 0; id < n; id++ {
		if recs[id] != nil {
			ids = append(ids, id)
		}
	}
	tags := make([]string, maxRounds)
	for i := 0; i < maxRounds; i++ {
		for _, id := range ids {
			if rr := recs[id].rounds; i < len(rr) && rr[i].tag >= 0 {
				tags[i] = recs[id].tags[rr[i].tag].tag
				break
			}
		}
		if tags[i] == "" && i > 0 {
			tags[i] = tags[i-1]
		}
	}
	type class struct{ g, s int }
	cache := make(map[string]class)
	classOf := func(tag string) class {
		c, ok := cache[tag]
		if !ok {
			c.g, c.s = classify(tag)
			cache[tag] = c
		}
		return c
	}
	for _, tag := range tags {
		c := classOf(tag)
		st.groupRounds[c.g]++
		if c.s != sNone {
			st.subRounds[c.s]++
		}
	}
	var heard uint64
	for _, id := range ids {
		r := recs[id]
		st.parties++
		heard |= r.heard
		st.partyIDs = append(st.partyIDs, id)
		st.partySpans = append(st.partySpans, [2]int64{r.start, r.end})
		for i, rr := range r.rounds {
			c := classOf(tags[i])
			st.compute += rr.compute
			st.wait += rr.wait()
			st.groupCompute[c.g] += rr.compute
			if c.s != sNone {
				st.subCompute[c.s] += rr.compute
			}
			st.waits = append(st.waits, int32(rr.wait()/1e3))
		}
		tail := r.end - r.last
		st.compute += tail
		if len(tags) > 0 {
			c := classOf(tags[len(tags)-1])
			st.groupCompute[c.g] += tail
			if c.s != sNone {
				st.subCompute[c.s] += tail
			}
		}
		for _, t := range r.tags {
			st.ledger[t.tag] += t.bytes
			c := classOf(t.tag)
			st.groupBytes[c.g] += t.bytes
			if c.s != sNone {
				st.subBytes[c.s] += t.bytes
			}
		}
	}
	for id := 0; id < n; id++ {
		if heard&(1<<uint(id)) == 0 {
			st.silent++
		}
	}
	if len(ids) > 0 {
		st.observer = ids[0]
		st.observerRounds = recs[ids[0]].rounds
	}
	st.roundTags = tags
	return st
}
