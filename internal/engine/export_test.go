package engine

// Test-only views into the memory cache for the external engine_test
// package.

// SimEntries counts the resident simulation artifacts: one per distinct
// SimKey while the budget keeps every run resident.
func (e *Engine) SimEntries() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, ent := range e.mem.entries {
		if ent.kind == kindSim {
			n++
		}
	}
	return n
}

// MeasuredBytes re-measures every resident entry from what it holds now
// — harvest slice lengths times element sizes, the exact tracker's
// static instructions, trace lengths — independently of the cost each
// entry was charged when it was inserted.
func (e *Engine) MeasuredBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, ent := range e.mem.entries {
		total += baseCost
		switch ent.kind {
		case kindTrace:
			total += int64(ent.tr.Len()) * bytesPerInst
		case kindStore:
			total += ent.st.WindowBytes()
		case kindSim:
			if in := ent.art.Harvest(); in != nil {
				total += int64(8*len(in.Release) + 8*len(in.Latency) + len(in.Mispredicted) + 8*len(in.Complete))
			}
			if x := ent.art.Exact(); x != nil {
				total += bytesPerExactPC * int64(len(x.PCs()))
			}
		}
	}
	return total
}
