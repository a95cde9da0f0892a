// Package arch describes DNN accelerator hardware: the MAC array and the
// multi-level memory system — per-memory capacity, bandwidth, port
// configuration, double-buffering and operand sharing — that the latency
// model consumes (paper Section II-A-2).
//
// A physical memory module may be shared by several operands (the model's
// Step 1 virtually divides it into Unit Memories) and exposes one or more
// physical ports; each (operand, access-direction) pair at a memory is
// assigned to one port, so that several data-transfer links (DTLs) may
// contend for the same port (the model's Step 2 combines them).
package arch

import (
	"fmt"
	"sync"

	"repro/internal/loops"
)

// PortDir tells which access directions a physical memory port supports.
type PortDir uint8

// Port directions.
const (
	Read PortDir = iota
	Write
	ReadWrite
)

// String returns "R", "W" or "RW".
func (d PortDir) String() string {
	switch d {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	}
	return fmt.Sprintf("PortDir(%d)", uint8(d))
}

// Allows reports whether a port of direction d can serve a write (isWrite)
// or read (!isWrite) access.
func (d PortDir) Allows(isWrite bool) bool {
	switch d {
	case ReadWrite:
		return true
	case Read:
		return !isWrite
	case Write:
		return isWrite
	}
	return false
}

// Port is one physical memory port with a raw bandwidth in bits per cycle.
type Port struct {
	Name   string
	Dir    PortDir
	BWBits int64 // bits transferred per cycle
}

// Access identifies one access class at a memory: operand o reading from or
// writing into the module.
type Access struct {
	Operand loops.Operand
	Write   bool
}

// String renders e.g. "W:rd" or "O:wr".
func (a Access) String() string {
	dir := "rd"
	if a.Write {
		dir = "wr"
	}
	return a.Operand.String() + ":" + dir
}

// Memory is one physical memory module.
type Memory struct {
	Name string

	// CapacityBits is the total physical capacity. For double-buffered
	// memories the mapper-visible capacity is half of this (Table I).
	CapacityBits int64

	// DoubleBuffered memories can always overlap updates with compute;
	// single-buffered memories incur the Table-I keep-out when a reuse
	// (ir) loop is scheduled on top.
	DoubleBuffered bool

	// Serves lists the operands stored in this module.
	Serves []loops.Operand

	// Ports are the physical ports of the module.
	Ports []Port

	// PortOf assigns each access class to a port index. Accesses missing
	// from the map are assigned by Normalize to the first port whose
	// direction allows them.
	PortOf map[Access]int
}

// ServesOperand reports whether the module stores operand op.
func (m *Memory) ServesOperand(op loops.Operand) bool {
	for _, o := range m.Serves {
		if o == op {
			return true
		}
	}
	return false
}

// MapperCapacityBits is the capacity visible to the mapper: half the
// physical capacity for double-buffered modules (Table I), otherwise the
// full capacity.
func (m *Memory) MapperCapacityBits() int64 {
	if m.DoubleBuffered {
		return m.CapacityBits / 2
	}
	return m.CapacityBits
}

// Port returns the port serving access a. Normalize must have run.
func (m *Memory) Port(a Access) (*Port, int, error) {
	idx, ok := m.PortOf[a]
	if !ok {
		return nil, -1, fmt.Errorf("arch: memory %q: no port assigned for access %s", m.Name, a)
	}
	if idx < 0 || idx >= len(m.Ports) {
		return nil, -1, fmt.Errorf("arch: memory %q: port index %d out of range for access %s", m.Name, idx, a)
	}
	return &m.Ports[idx], idx, nil
}

// Normalize fills in default port assignments: every access class (each
// served operand, read and write) not already present in PortOf is assigned
// to the first port whose direction allows it.
func (m *Memory) Normalize() error {
	if m.PortOf == nil {
		m.PortOf = make(map[Access]int)
	}
	for _, op := range m.Serves {
		for _, wr := range []bool{false, true} {
			a := Access{Operand: op, Write: wr}
			if _, ok := m.PortOf[a]; ok {
				continue
			}
			found := -1
			for i, p := range m.Ports {
				if p.Dir.Allows(wr) {
					found = i
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("arch: memory %q: no port can serve access %s", m.Name, a)
			}
			m.PortOf[a] = found
		}
	}
	return nil
}

// Validate checks the module's internal consistency (after Normalize).
func (m *Memory) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("arch: memory with empty name")
	}
	if m.CapacityBits <= 0 {
		return fmt.Errorf("arch: memory %q: non-positive capacity %d", m.Name, m.CapacityBits)
	}
	if len(m.Serves) == 0 {
		return fmt.Errorf("arch: memory %q serves no operands", m.Name)
	}
	seen := map[loops.Operand]bool{}
	for _, op := range m.Serves {
		if seen[op] {
			return fmt.Errorf("arch: memory %q lists operand %s twice", m.Name, op)
		}
		seen[op] = true
	}
	if len(m.Ports) == 0 {
		return fmt.Errorf("arch: memory %q has no ports", m.Name)
	}
	for i, p := range m.Ports {
		if p.BWBits <= 0 {
			return fmt.Errorf("arch: memory %q port %d (%s): non-positive bandwidth %d", m.Name, i, p.Name, p.BWBits)
		}
	}
	for a, idx := range m.PortOf {
		if !m.ServesOperand(a.Operand) {
			return fmt.Errorf("arch: memory %q: port assignment for unserved operand %s", m.Name, a.Operand)
		}
		if idx < 0 || idx >= len(m.Ports) {
			return fmt.Errorf("arch: memory %q: access %s assigned to invalid port %d", m.Name, a, idx)
		}
		if !m.Ports[idx].Dir.Allows(a.Write) {
			return fmt.Errorf("arch: memory %q: access %s assigned to %s port %q", m.Name, a, m.Ports[idx].Dir, m.Ports[idx].Name)
		}
	}
	return nil
}

// StallCombine selects how Step 3 integrates the stall contributions of a
// set of memory modules: memories that operate concurrently hide each
// other's stalls (max), memories that operate sequentially accumulate them
// (sum). Paper Section III-D.
type StallCombine uint8

// Stall combination modes.
const (
	Concurrent StallCombine = iota // SS_overall takes the max
	Sequential                     // SS_overall takes the sum
)

// String returns "max" or "sum".
func (s StallCombine) String() string {
	if s == Sequential {
		return "sum"
	}
	return "max"
}

// Arch is a complete accelerator description.
type Arch struct {
	Name string

	// MACs is the total number of multiply-accumulate units in the array.
	MACs int64

	// ArrayRows and ArrayCols describe the physical array shape (purely
	// informational; the model uses MACs).
	ArrayRows, ArrayCols int

	// Memories lists all physical memory modules.
	Memories []*Memory

	// Chain gives, per operand, the module names of that operand's
	// hierarchy from innermost (registers, index 0) to outermost (DRAM or
	// global buffer). All names must exist in Memories and serve the
	// operand. Chains of different operands may have different lengths
	// and may share modules.
	Chain [loops.NumOperands][]string

	// Combine selects the Step-3 cross-memory stall integration mode.
	Combine StallCombine

	// chains memoizes ChainMems: the evaluator, the mapper and the simulator
	// resolve the chains per problem, and the per-call slice allocation plus
	// MemoryByName scans would show up in every search. Resolved once, on
	// first use — Chain must not be edited afterwards (no caller
	// does; every Arch is fully built before the first search touches it).
	chainOnce sync.Once
	chains    [loops.NumOperands][]*Memory
}

// MemoryByName returns the named module or nil.
func (a *Arch) MemoryByName(name string) *Memory {
	for _, m := range a.Memories {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// ChainMems resolves operand op's chain into module pointers. The result is
// memoized on first use and shared between callers: treat it as read-only,
// and do not edit Chain after the first call.
func (a *Arch) ChainMems(op loops.Operand) []*Memory {
	a.chainOnce.Do(func() {
		for _, o := range loops.AllOperands {
			names := a.Chain[o]
			out := make([]*Memory, len(names))
			for i, n := range names {
				out[i] = a.MemoryByName(n)
			}
			a.chains[o] = out
		}
	})
	return a.chains[op]
}

// Levels returns the number of memory levels in operand op's chain.
func (a *Arch) Levels(op loops.Operand) int { return len(a.Chain[op]) }

// Normalize applies default port assignments on every module.
func (a *Arch) Normalize() error {
	for _, m := range a.Memories {
		if err := m.Normalize(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks global consistency. Call after Normalize.
func (a *Arch) Validate() error {
	if a.MACs <= 0 {
		return fmt.Errorf("arch %q: non-positive MAC count %d", a.Name, a.MACs)
	}
	names := map[string]bool{}
	for _, m := range a.Memories {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("arch %q: %w", a.Name, err)
		}
		if names[m.Name] {
			return fmt.Errorf("arch %q: duplicate memory name %q", a.Name, m.Name)
		}
		names[m.Name] = true
	}
	for _, op := range loops.AllOperands {
		chain := a.Chain[op]
		if len(chain) == 0 {
			return fmt.Errorf("arch %q: operand %s has an empty memory chain", a.Name, op)
		}
		for _, n := range chain {
			m := a.MemoryByName(n)
			if m == nil {
				return fmt.Errorf("arch %q: operand %s chain references unknown memory %q", a.Name, op, n)
			}
			if !m.ServesOperand(op) {
				return fmt.Errorf("arch %q: memory %q in %s's chain does not serve %s", a.Name, n, op, op)
			}
		}
		seen := map[string]bool{}
		for _, n := range chain {
			if seen[n] {
				return fmt.Errorf("arch %q: operand %s chain repeats memory %q", a.Name, op, n)
			}
			seen[n] = true
		}
	}
	return nil
}

// Clone returns a deep copy of the architecture.
func (a *Arch) Clone() *Arch {
	out := &Arch{
		Name:      a.Name,
		MACs:      a.MACs,
		ArrayRows: a.ArrayRows,
		ArrayCols: a.ArrayCols,
		Combine:   a.Combine,
	}
	for _, m := range a.Memories {
		cm := &Memory{
			Name:           m.Name,
			CapacityBits:   m.CapacityBits,
			DoubleBuffered: m.DoubleBuffered,
			Serves:         append([]loops.Operand(nil), m.Serves...),
			Ports:          append([]Port(nil), m.Ports...),
			PortOf:         make(map[Access]int, len(m.PortOf)),
		}
		for k, v := range m.PortOf {
			cm.PortOf[k] = v
		}
		out.Memories = append(out.Memories, cm)
	}
	for op := range a.Chain {
		out.Chain[op] = append([]string(nil), a.Chain[op]...)
	}
	return out
}
