package sim

import (
	"sort"

	"wlan80211/internal/dot11"
	"wlan80211/internal/eventq"
	"wlan80211/internal/phy"
)

// This file captures the simulator's complete numeric state for the
// snapshot subsystem: the event queue (slabs, pending events, free
// list, FIFO ranks), every node's DCF state (banked backoff slots, NAV
// legs, transmit queue), the RNG stream position, the pooled in-flight
// transmissions and active sets, and the link matrix's
// lazy-invalidation tags.
//
// Event callbacks are closures and cannot be serialized, so the state
// is a *witness*, not a constructor: a restore rebuilds the network
// by deterministic replay from the scenario seed, then proves the
// reconstruction by re-capturing this state and comparing it byte for
// byte against the snapshot. Every field here is a pure function of
// (scenario, seed, events fired), so a correct replay reproduces the
// capture exactly; any divergence — version skew, nondeterminism, a
// corrupted snapshot that passed its checksum — fails the comparison
// loudly instead of silently continuing from a wrong state.

// FrameState is one queued MSDU/management frame.
type FrameState struct {
	Kind     int8
	To       dot11.Addr
	Size     int
	UseRTS   bool
	Enqueued phy.Micros
	Seq      uint16
	Retries  int
	// MgmtWireLen/MgmtHash witness a queued management frame's encoded
	// bytes without storing them (beacons re-encode identically on
	// replay: their timestamp and sequence fields are simulation state).
	MgmtWireLen int
	MgmtHash    uint64
}

// NodeState is one node's complete DCF and identity state.
type NodeState struct {
	ID         int
	Pos        Position
	Channel    phy.Channel
	TxPower    float64
	IsAP       bool
	GCapable   bool
	UseRTS     bool
	Associated bool
	AssocCount int

	Queue     []FrameState
	Seq       uint16
	CW        int
	Backoff   int // banked slots while frozen
	Busy      int
	NavUntil  phy.Micros
	IdleSince phy.Micros

	Transmitting   bool
	CountdownStart phy.Micros
	// CountdownSlot/Pending/When tie the node's countdown handle to
	// its event-queue slot; a NAV-leg wait shows as When ==
	// CountdownStart (the two-stage arm).
	CountdownSlot    int32
	CountdownPending bool
	CountdownWhen    phy.Micros
	Awaiting         int8
	AwaitSlot        int32
	AwaitPending     bool
	AwaitWhen        phy.Micros
	PendingResp      int8
	RespRA           dot11.Addr
	RespDur          uint16

	Sent, Acked, Dropped int64
}

// TxState is one pooled in-flight (or lingering, still-referenced)
// transmission.
type TxState struct {
	Seqno      uint64
	FromID     int
	Rate       phy.Rate
	WireLen    int
	Start, End phy.Micros
	ActiveIdx  int
	Refs       int
	Done       bool
	Frame      []byte
	Overlapped []uint64 // seqnos, in overlap-list order
}

// MediumState is one channel's membership and air state.
type MediumState struct {
	Channel phy.Channel
	NodeIDs []int // attachment order — the delivery order
	Active  []TxState
	// Lingering are completed transmissions still referenced by the
	// overlap lists of active ones (their power matters to pending
	// delivery decisions), in seqno order.
	Lingering []TxState
}

// LinkRowTag is one link-matrix row's lazy-invalidation tag plus its
// stored population: dense rows store one link per node (Extras 0),
// sparse rows store the culled neighborhood (Links) and the mid-run
// node-add appends not yet folded in by a rebuild (Extras).
type LinkRowTag struct {
	Power  float64
	Epoch  uint64
	Links  int
	Extras int
}

// SpatialIndexState witnesses the spatial cell grid of sparse-mode
// networks (zero-valued if the index has never been built). Like the
// link-row tags it is a replay witness: the grid's geometry and
// lifetime rebuild count are pure functions of the event history.
type SpatialIndexState struct {
	Epoch  uint64
	Nodes  int
	Power  float64
	Cell   float64
	Cols   int
	Rows   int
	Builds uint64
}

// NetworkState is the simulator's full serializable state.
type NetworkState struct {
	Now      phy.Micros
	Seed     int64
	RNGDraws uint64
	PosEpoch uint64
	TxSeq    uint64
	// TxPoolFree is the recycle pool's depth — free-list reuse order
	// is LIFO, so the depth plus the replayed history pins it.
	TxPoolFree int
	Stats      NetStats
	Queue      eventq.QueueState
	Nodes      []NodeState
	Media      []MediumState
	LinkRows   []LinkRowTag
	Index      SpatialIndexState
}

// CaptureState snapshots the network's complete numeric state. Call
// between events (e.g. after RunUntil returns); capturing mid-callback
// would observe half-applied transitions.
func (n *Network) CaptureState() *NetworkState {
	st := &NetworkState{
		Now:        n.q.Now(),
		Seed:       n.cfg.Seed,
		RNGDraws:   n.rngSrc.Draws(),
		PosEpoch:   n.posEpoch,
		TxSeq:      n.txSeq,
		TxPoolFree: len(n.txFree),
		Stats:      n.Stats,
		Queue:      n.q.SaveState(),
		Nodes:      make([]NodeState, len(n.nodes)),
		LinkRows:   make([]LinkRowTag, len(n.links)),
	}
	for i, row := range n.links {
		tag := LinkRowTag{Power: row.power, Epoch: row.epoch}
		if row.sparse {
			tag.Links, tag.Extras = len(row.ids), len(row.extraIDs)
		} else {
			tag.Links = len(row.to)
		}
		st.LinkRows[i] = tag
	}
	if g := n.grid; g != nil {
		st.Index = SpatialIndexState{
			Epoch: g.epoch, Nodes: g.nnodes, Power: g.power, Cell: g.cell,
			Cols: g.cols, Rows: g.rows, Builds: g.builds,
		}
	}
	for i, node := range n.nodes {
		st.Nodes[i] = node.captureState()
	}
	channels := make([]phy.Channel, 0, len(n.media))
	for ch := range n.media {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })
	for _, ch := range channels {
		st.Media = append(st.Media, n.media[ch].captureState())
	}
	return st
}

func (node *Node) captureState() NodeState {
	ns := NodeState{
		ID: node.ID, Pos: node.Pos, Channel: node.Channel, TxPower: node.TxPower,
		IsAP: node.IsAP, GCapable: node.GCapable, UseRTS: node.UseRTS,
		Associated: node.associated, AssocCount: node.assocCount,
		Seq: node.seq, CW: node.cw, Backoff: node.backoff, Busy: node.busyCount,
		NavUntil: node.navUntil, IdleSince: node.idleSince,
		Transmitting:   node.transmitting,
		CountdownStart: node.countdownStart,
		Awaiting:       int8(node.awaiting),
		PendingResp:    int8(node.pendingResp),
		RespRA:         node.respRA, RespDur: node.respDur,
		Sent: node.Sent, Acked: node.Acked, Dropped: node.Dropped,
	}
	ns.CountdownSlot = node.countdown.Slot()
	ns.CountdownWhen, ns.CountdownPending = node.countdown.When()
	ns.AwaitSlot = node.awaitTimeout.Slot()
	ns.AwaitWhen, ns.AwaitPending = node.awaitTimeout.When()
	for i := node.qhead; i < len(node.queue); i++ {
		f := &node.queue[i]
		fs := FrameState{
			Kind: int8(f.kind), To: f.to, Size: f.size, UseRTS: f.useRTS,
			Enqueued: f.enqueued, Seq: f.seq, Retries: f.retries,
		}
		if f.mgmt != nil {
			fs.MgmtWireLen = f.mgmt.WireLen()
			fs.MgmtHash = hashBytes(f.mgmt.AppendTo(nil))
		}
		ns.Queue = append(ns.Queue, fs)
	}
	return ns
}

func (m *medium) captureState() MediumState {
	ms := MediumState{Channel: m.channel}
	for _, node := range m.nodes {
		ms.NodeIDs = append(ms.NodeIDs, node.ID)
	}
	seen := make(map[uint64]bool, len(m.active))
	var lingering []*transmission
	for _, tx := range m.active {
		ms.Active = append(ms.Active, tx.captureState())
		seen[tx.seqno] = true
	}
	for _, tx := range m.active {
		for _, o := range tx.overlapped {
			if o.done && !seen[o.seqno] {
				seen[o.seqno] = true
				lingering = append(lingering, o)
			}
		}
	}
	sort.Slice(lingering, func(i, j int) bool { return lingering[i].seqno < lingering[j].seqno })
	for _, tx := range lingering {
		ms.Lingering = append(ms.Lingering, tx.captureState())
	}
	return ms
}

func (tx *transmission) captureState() TxState {
	ts := TxState{
		Seqno: tx.seqno, FromID: tx.from.ID, Rate: tx.rate, WireLen: tx.wireLen,
		Start: tx.start, End: tx.end, ActiveIdx: tx.activeIdx,
		Refs: tx.refs, Done: tx.done,
		Frame: append([]byte(nil), tx.frame...),
	}
	for _, o := range tx.overlapped {
		ts.Overlapped = append(ts.Overlapped, o.seqno)
	}
	return ts
}

// hashBytes is FNV-1a, enough to witness a frame's encoded bytes.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
