// Package stage models data staging between the client, the shared
// filesystem, and task sandboxes. Kernel plugins declare staging
// directives (upload, copy, link, download); the pilot agent executes them
// through a Mover, whose cost model charges per-operation latency plus
// size/bandwidth transfer time. The figures' staging components come from
// here.
package stage

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"entk/internal/cluster"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// Op is a staging operation type, mirroring the staging directives of
// RADICAL-Pilot (and EnTK kernel plugins' upload/copy/link/download).
type Op int

const (
	// Upload transfers a file from the client to the resource over the
	// WAN: pays network latency and WAN bandwidth.
	Upload Op = iota
	// Copy duplicates a file within the shared filesystem.
	Copy
	// Link creates a symlink within the shared filesystem: latency only.
	Link
	// Download transfers a file from the resource back to the client.
	Download
)

func (o Op) String() string {
	switch o {
	case Upload:
		return "upload"
	case Copy:
		return "copy"
	case Link:
		return "link"
	case Download:
		return "download"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Directive is one staging action: move Source to Target using Op.
// SizeMB drives the transfer-time model; links ignore it.
type Directive struct {
	Op     Op
	Source string
	Target string
	SizeMB float64
}

// Validate rejects malformed directives.
func (d Directive) Validate() error {
	if strings.TrimSpace(d.Source) == "" {
		return fmt.Errorf("stage: %s directive with empty source", d.Op)
	}
	if d.SizeMB < 0 {
		return fmt.Errorf("stage: %s %q has negative size", d.Op, d.Source)
	}
	return nil
}

// String renders the directive like "copy src > dst (12.5 MB)".
func (d Directive) String() string {
	t := d.Target
	if t == "" {
		t = "."
	}
	return fmt.Sprintf("%s %s > %s (%.1f MB)", d.Op, d.Source, t, d.SizeMB)
}

// Mover executes staging directives on a machine's filesystem, advancing
// the virtual clock according to the cost model. WANBandwidthMBps covers
// Upload/Download; the machine's FS bandwidth covers Copy.
type Mover struct {
	v       vclock.Clock
	machine *cluster.Machine
	// WANBandwidthMBps is the client<->resource transfer bandwidth.
	WANBandwidthMBps float64

	// prof, when set, receives one event per completed staging op on the
	// mover's entity, recorded with the pre-interned per-op name ids —
	// the staging component of the TTC decomposition. Ops run on the
	// per-unit hot path, so no strings are formatted here.
	prof    *profile.Profiler
	entity  profile.EntityID
	opNames [4]profile.NameID // indexed by Op

	mu          sync.Mutex
	transferred float64 // cumulative MB moved (for accounting/tests)
	ops         int
}

// SetProfiler wires per-op recording into p under the given entity key.
func (m *Mover) SetProfiler(p *profile.Profiler, entity string) {
	m.prof = p
	m.entity = p.Intern(entity)
	for _, op := range []Op{Upload, Copy, Link, Download} {
		m.opNames[op] = p.InternName("op_" + op.String())
	}
}

// NewMover returns a Mover for machine with a default 100 MB/s WAN.
func NewMover(v vclock.Clock, machine *cluster.Machine) *Mover {
	return &Mover{v: v, machine: machine, WANBandwidthMBps: 100}
}

// Cost returns the modelled duration of a single directive.
func (m *Mover) Cost(d Directive) time.Duration {
	switch d.Op {
	case Link:
		return m.machine.FSLatency
	case Copy:
		return m.machine.FSLatency + mbTime(d.SizeMB, m.machine.FSBandwidthMBps)
	case Upload, Download:
		return 2*m.machine.NetLatency + mbTime(d.SizeMB, m.WANBandwidthMBps)
	default:
		return 0
	}
}

// Run executes the directives sequentially (as the agent stager does),
// sleeping their modelled cost on the virtual clock. It returns the total
// staging time.
func (m *Mover) Run(dirs []Directive) (time.Duration, error) {
	var total time.Duration
	for _, d := range dirs {
		c, err := m.Begin(d)
		if err != nil {
			return total, err
		}
		m.v.Sleep(c)
		total += c
		m.Done(d)
	}
	return total, nil
}

// Begin is the first half of one non-sleeping staging step: it validates
// d and returns its modelled cost. The caller waits out the cost on its
// own terms (a Sleep, or a clock callback) and then calls Done, so a
// stager that must not block can run directives one timer at a time.
func (m *Mover) Begin(d Directive) (time.Duration, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	return m.Cost(d), nil
}

// Done completes a directive started with Begin once its cost has
// elapsed: the op's profiler record and the mover's accounting.
func (m *Mover) Done(d Directive) {
	if m.prof != nil && d.Op >= Upload && d.Op <= Download {
		m.prof.RecordID(m.entity, m.opNames[d.Op])
	}
	m.mu.Lock()
	m.ops++
	if d.Op != Link {
		m.transferred += d.SizeMB
	}
	m.mu.Unlock()
}

// Stats reports cumulative operations and megabytes moved.
func (m *Mover) Stats() (ops int, transferredMB float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops, m.transferred
}

// mbTime converts a size and bandwidth to a duration.
func mbTime(sizeMB, mbps float64) time.Duration {
	if sizeMB <= 0 || mbps <= 0 {
		return 0
	}
	return time.Duration(sizeMB / mbps * float64(time.Second))
}
