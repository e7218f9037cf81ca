package snapshot

import (
	"wlan80211/internal/dot11"
	"wlan80211/internal/eventq"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
)

// Typed encoders for the simulator's state structures. Each produces
// one section payload. The payloads are replay witnesses: a resume
// re-encodes the replayed state and compares bytes, so nothing decodes
// them and any layout change must bump Version.

// encodeQueueState serializes an event-queue state (a blob inside the
// NETW section).
func encodeQueueState(st eventq.QueueState) []byte {
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

func encodeAddr(e *Enc, a dot11.Addr) {
	e.buf = append(e.buf, a[:]...)
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
	e.Blob(encodeQueueState(st.Queue))
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
