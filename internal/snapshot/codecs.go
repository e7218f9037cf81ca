package snapshot

import (
	"wlan80211/internal/dot11"
	"wlan80211/internal/eventq"
	"wlan80211/internal/phy"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
)

// Typed codecs for the simulator's state structures. Each Encode
// produces one section payload; each Decode validates with the sticky
// Dec (bounds-checked counts, trailing-byte detection) and returns an
// error on any defect — never a panic.

// EncodeQueueState serializes an event-queue state (the EVTQ section).
func EncodeQueueState(st eventq.QueueState) []byte {
	var e Enc
	e.I64(st.Now)
	e.I64(st.Last)
	e.U64(st.Seq)
	e.U64(st.Runs)
	e.U64(st.Relocs)
	e.U64(st.Scheds)
	e.U64(st.Cancels)
	e.Count(len(st.Slots))
	for _, s := range st.Slots {
		e.I64(s.At)
		e.U64(s.Seq)
		e.U32(s.Gen)
		e.U8(s.State)
		e.Bool(s.HasFn)
	}
	e.Count(len(st.Pending))
	for _, p := range st.Pending {
		e.I64(p.At)
		e.U64(p.Seq)
		e.I32(p.Idx)
	}
	e.Count(len(st.Free))
	for _, f := range st.Free {
		e.I32(f)
	}
	return e.Bytes()
}

// DecodeQueueState parses an EVTQ payload.
func DecodeQueueState(b []byte) (eventq.QueueState, error) {
	d := NewDec(b)
	st := eventq.QueueState{
		Now: d.I64(), Last: d.I64(), Seq: d.U64(), Runs: d.U64(),
		Relocs: d.U64(), Scheds: d.U64(), Cancels: d.U64(),
	}
	nslots := d.Count(22) // 8 + 8 + 4 + 1 + 1 bytes per slot
	for i := 0; i < nslots; i++ {
		st.Slots = append(st.Slots, eventq.SlotState{
			At: d.I64(), Seq: d.U64(), Gen: d.U32(), State: d.U8(), HasFn: d.Bool(),
		})
	}
	npending := d.Count(20)
	for i := 0; i < npending; i++ {
		st.Pending = append(st.Pending, eventq.EntryState{At: d.I64(), Seq: d.U64(), Idx: d.I32()})
	}
	nfree := d.Count(4)
	for i := 0; i < nfree; i++ {
		st.Free = append(st.Free, d.I32())
	}
	return st, d.Finish()
}

func encodeAddr(e *Enc, a dot11.Addr) {
	e.buf = append(e.buf, a[:]...)
}

func decodeAddr(d *Dec) (a dot11.Addr) {
	copy(a[:], d.take(len(a)))
	return a
}

func encodeFrame(e *Enc, f sim.FrameState) {
	e.U8(uint8(f.Kind))
	encodeAddr(e, f.To)
	e.Int(f.Size)
	e.Bool(f.UseRTS)
	e.I64(f.Enqueued)
	e.U16(f.Seq)
	e.Int(f.Retries)
	e.Int(f.MgmtWireLen)
	e.U64(f.MgmtHash)
}

func decodeFrame(d *Dec) sim.FrameState {
	return sim.FrameState{
		Kind: int8(d.U8()), To: decodeAddr(d), Size: d.Int(), UseRTS: d.Bool(),
		Enqueued: d.I64(), Seq: d.U16(), Retries: d.Int(),
		MgmtWireLen: d.Int(), MgmtHash: d.U64(),
	}
}

func encodeNode(e *Enc, n sim.NodeState) {
	e.Int(n.ID)
	e.F64(n.Pos.X)
	e.F64(n.Pos.Y)
	e.Int(int(n.Channel))
	e.F64(n.TxPower)
	e.Bool(n.IsAP)
	e.Bool(n.GCapable)
	e.Bool(n.UseRTS)
	e.Bool(n.Associated)
	e.Int(n.AssocCount)
	e.Count(len(n.Queue))
	for _, f := range n.Queue {
		encodeFrame(e, f)
	}
	e.U16(n.Seq)
	e.Int(n.CW)
	e.Int(n.Backoff)
	e.Int(n.Busy)
	e.I64(n.NavUntil)
	e.I64(n.IdleSince)
	e.Bool(n.Transmitting)
	e.I64(n.CountdownStart)
	e.I32(n.CountdownSlot)
	e.Bool(n.CountdownPending)
	e.I64(n.CountdownWhen)
	e.U8(uint8(n.Awaiting))
	e.I32(n.AwaitSlot)
	e.Bool(n.AwaitPending)
	e.I64(n.AwaitWhen)
	e.U8(uint8(n.PendingResp))
	encodeAddr(e, n.RespRA)
	e.U16(n.RespDur)
	e.I64(n.Sent)
	e.I64(n.Acked)
	e.I64(n.Dropped)
}

func decodeNode(d *Dec) sim.NodeState {
	n := sim.NodeState{
		ID:  d.Int(),
		Pos: sim.Position{X: d.F64(), Y: d.F64()},
	}
	n.Channel = phy.Channel(d.Int())
	n.TxPower = d.F64()
	n.IsAP, n.GCapable, n.UseRTS, n.Associated = d.Bool(), d.Bool(), d.Bool(), d.Bool()
	n.AssocCount = d.Int()
	nq := d.Count(50) // fixed frame encoding size
	for i := 0; i < nq; i++ {
		n.Queue = append(n.Queue, decodeFrame(d))
	}
	n.Seq = d.U16()
	n.CW, n.Backoff, n.Busy = d.Int(), d.Int(), d.Int()
	n.NavUntil, n.IdleSince = d.I64(), d.I64()
	n.Transmitting = d.Bool()
	n.CountdownStart = d.I64()
	n.CountdownSlot, n.CountdownPending, n.CountdownWhen = d.I32(), d.Bool(), d.I64()
	n.Awaiting = int8(d.U8())
	n.AwaitSlot, n.AwaitPending, n.AwaitWhen = d.I32(), d.Bool(), d.I64()
	n.PendingResp = int8(d.U8())
	n.RespRA = decodeAddr(d)
	n.RespDur = d.U16()
	n.Sent, n.Acked, n.Dropped = d.I64(), d.I64(), d.I64()
	return n
}

func encodeTx(e *Enc, t sim.TxState) {
	e.U64(t.Seqno)
	e.Int(t.FromID)
	e.U16(uint16(t.Rate))
	e.Int(t.WireLen)
	e.I64(t.Start)
	e.I64(t.End)
	e.Int(t.ActiveIdx)
	e.Int(t.Refs)
	e.Bool(t.Done)
	e.Blob(t.Frame)
	e.Count(len(t.Overlapped))
	for _, o := range t.Overlapped {
		e.U64(o)
	}
}

func decodeTx(d *Dec) sim.TxState {
	t := sim.TxState{
		Seqno: d.U64(), FromID: d.Int(), Rate: phy.Rate(d.U16()), WireLen: d.Int(),
		Start: d.I64(), End: d.I64(), ActiveIdx: d.Int(), Refs: d.Int(),
		Done: d.Bool(), Frame: d.Blob(),
	}
	no := d.Count(8)
	for i := 0; i < no; i++ {
		t.Overlapped = append(t.Overlapped, d.U64())
	}
	return t
}

func encodeMedium(e *Enc, m sim.MediumState) {
	e.Int(int(m.Channel))
	e.Count(len(m.NodeIDs))
	for _, id := range m.NodeIDs {
		e.Int(id)
	}
	e.Count(len(m.Active))
	for _, t := range m.Active {
		encodeTx(e, t)
	}
	e.Count(len(m.Lingering))
	for _, t := range m.Lingering {
		encodeTx(e, t)
	}
}

func decodeMedium(d *Dec) sim.MediumState {
	m := sim.MediumState{Channel: phy.Channel(d.Int())}
	nn := d.Count(8)
	for i := 0; i < nn; i++ {
		m.NodeIDs = append(m.NodeIDs, d.Int())
	}
	na := d.Count(61) // fixed tx prefix + 2 empty counts
	for i := 0; i < na; i++ {
		m.Active = append(m.Active, decodeTx(d))
	}
	nl := d.Count(61)
	for i := 0; i < nl; i++ {
		m.Lingering = append(m.Lingering, decodeTx(d))
	}
	return m
}

// EncodeNetworkState serializes a network state (the NETW section).
func EncodeNetworkState(st *sim.NetworkState) []byte {
	var e Enc
	e.I64(st.Now)
	e.I64(st.Seed)
	e.U64(st.RNGDraws)
	e.U64(st.PosEpoch)
	e.U64(st.TxSeq)
	e.Int(st.TxPoolFree)
	e.I64(st.Stats.DataSent)
	e.I64(st.Stats.DataAcked)
	e.I64(st.Stats.DataDropped)
	e.I64(st.Stats.RTSSent)
	e.I64(st.Stats.CTSSent)
	e.I64(st.Stats.ACKSent)
	e.I64(st.Stats.BeaconsSent)
	e.I64(st.Stats.Collisions)
	e.I64(st.Stats.QueueDrops)
	e.I64(st.Stats.AssocEvents)
	e.I64(st.Stats.ChannelSwitch)
	e.Blob(EncodeQueueState(st.Queue))
	e.Count(len(st.Nodes))
	for _, n := range st.Nodes {
		encodeNode(&e, n)
	}
	e.Count(len(st.Media))
	for _, m := range st.Media {
		encodeMedium(&e, m)
	}
	e.Count(len(st.LinkRows))
	for _, r := range st.LinkRows {
		e.F64(r.Power)
		e.U64(r.Epoch)
		e.Int(r.Links)
		e.Int(r.Extras)
	}
	e.U64(st.Index.Epoch)
	e.Int(st.Index.Nodes)
	e.F64(st.Index.Power)
	e.F64(st.Index.Cell)
	e.Int(st.Index.Cols)
	e.Int(st.Index.Rows)
	e.U64(st.Index.Builds)
	return e.Bytes()
}

// DecodeNetworkState parses a NETW payload.
func DecodeNetworkState(b []byte) (*sim.NetworkState, error) {
	d := NewDec(b)
	st := &sim.NetworkState{
		Now: d.I64(), Seed: d.I64(), RNGDraws: d.U64(),
		PosEpoch: d.U64(), TxSeq: d.U64(), TxPoolFree: d.Int(),
	}
	st.Stats = sim.NetStats{
		DataSent: d.I64(), DataAcked: d.I64(), DataDropped: d.I64(),
		RTSSent: d.I64(), CTSSent: d.I64(), ACKSent: d.I64(),
		BeaconsSent: d.I64(), Collisions: d.I64(), QueueDrops: d.I64(),
		AssocEvents: d.I64(), ChannelSwitch: d.I64(),
	}
	qb := d.Blob()
	if d.Err() != nil {
		return nil, d.Err()
	}
	q, err := DecodeQueueState(qb)
	if err != nil {
		return nil, err
	}
	st.Queue = q
	nn := d.Count(32)
	for i := 0; i < nn; i++ {
		st.Nodes = append(st.Nodes, decodeNode(d))
	}
	nm := d.Count(11)
	for i := 0; i < nm; i++ {
		st.Media = append(st.Media, decodeMedium(d))
	}
	nr := d.Count(18)
	for i := 0; i < nr; i++ {
		st.LinkRows = append(st.LinkRows, sim.LinkRowTag{
			Power: d.F64(), Epoch: d.U64(), Links: d.Int(), Extras: d.Int(),
		})
	}
	st.Index = sim.SpatialIndexState{
		Epoch: d.U64(), Nodes: d.Int(), Power: d.F64(), Cell: d.F64(),
		Cols: d.Int(), Rows: d.Int(), Builds: d.U64(),
	}
	return st, d.Finish()
}

// EncodeSnifferStates serializes sniffer states (the SNIF section).
func EncodeSnifferStates(states []sniffer.State) []byte {
	var e Enc
	e.Count(len(states))
	for _, s := range states {
		e.Int(s.ID)
		e.I64(s.Seed)
		e.U64(s.RNGDraws)
		e.I64(s.Seen)
		e.I64(s.Captured)
		e.I64(s.LostHidden)
		e.I64(s.LostCollision)
		e.I64(s.LostBitError)
		e.I64(s.LostOverload)
		e.I64(s.CurSecond)
		e.Int(s.CurCount)
	}
	return e.Bytes()
}

// DecodeSnifferStates parses a SNIF payload.
func DecodeSnifferStates(b []byte) ([]sniffer.State, error) {
	d := NewDec(b)
	n := d.Count(88)
	var states []sniffer.State
	for i := 0; i < n; i++ {
		states = append(states, sniffer.State{
			ID: d.Int(), Seed: d.I64(), RNGDraws: d.U64(),
			Seen: d.I64(), Captured: d.I64(),
			LostHidden: d.I64(), LostCollision: d.I64(),
			LostBitError: d.I64(), LostOverload: d.I64(),
			CurSecond: d.I64(), CurCount: d.Int(),
		})
	}
	return states, d.Finish()
}
