package wire

import (
	"encoding/binary"
	"fmt"

	"nestedsg/internal/event"
)

// Edge exchange is the message layer of the offline partitioned certifier
// (internal/part): each partition flushes the SG edges it has derived,
// together with the event bound its stream has reached, and the composer
// unions the batches into the global graph. The partitions compose
// in-process, but the batch still crosses the codec on every flush — the
// encoded form IS the exchange.
//
// An EdgeBatch payload is:
//
//	version   uint8    (EdgeBatchVersion; unknown versions are rejected)
//	part      uvarint  (sending partition index)
//	upTo      uvarint  (events < upTo of the merged log are applied)
//	count     uvarint  (number of edge records)
//	records   count × { parent uvarint, from uvarint, to uvarint, kind uint8 }
//
// Transaction names travel as their interned tname IDs: both ends of the
// exchange replay the same total-order log, so their trees agree — the
// same argument that lets the WAL and the trace encode IDs.

// EdgeBatchVersion is the current edge-exchange protocol version.
const EdgeBatchVersion = 1

// MaxEdgeBatch caps the records accepted in one batch, bounding what a
// corrupt or hostile length prefix can make the decoder allocate.
const MaxEdgeBatch = 1 << 20

// SGEdge is one serialization-graph edge record in interned-ID space.
// Kind mirrors core.EdgeKind; the codec stays below core in the import
// order, so the mapping is by value, not by type.
type SGEdge struct {
	Parent, From, To uint32
	Kind             uint8
}

// EdgeBatch is one partition's flush: every edge record it derived since
// the previous flush, plus the exclusive event bound the partition's local
// stream has consumed. A batch's edges travel with (never after) its
// bound, so a receiver never counts an event as covered before holding its
// edges.
type EdgeBatch struct {
	Part  int
	UpTo  int
	Edges []SGEdge
}

// AppendEdgeBatch appends b's encoding to buf and returns the result.
func AppendEdgeBatch(buf []byte, b EdgeBatch) []byte {
	buf = append(buf, EdgeBatchVersion)
	buf = binary.AppendUvarint(buf, uint64(b.Part))
	buf = binary.AppendUvarint(buf, uint64(b.UpTo))
	buf = binary.AppendUvarint(buf, uint64(len(b.Edges)))
	for _, e := range b.Edges {
		buf = binary.AppendUvarint(buf, uint64(e.Parent))
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
		buf = append(buf, e.Kind)
	}
	return buf
}

// ParseEdgeBatch decodes one EdgeBatch payload. The records are appended
// into into.Edges[:0], so a caller that parses batches in a loop reuses
// one backing array; the other fields of into are ignored.
func ParseEdgeBatch(payload []byte, into EdgeBatch) (EdgeBatch, error) {
	b := EdgeBatch{Edges: into.Edges[:0]}
	c := event.NewCursor(payload)
	v, err := c.Byte("edge batch version")
	if err != nil {
		return b, err
	}
	if v != EdgeBatchVersion {
		return b, fmt.Errorf("wire: edge batch version %d, want %d", v, EdgeBatchVersion)
	}
	part, err := c.Uvarint("edge batch partition")
	if err != nil {
		return b, err
	}
	upTo, err := c.Uvarint("edge batch bound")
	if err != nil {
		return b, err
	}
	count, err := c.Uvarint("edge batch count")
	if err != nil {
		return b, err
	}
	if count > MaxEdgeBatch {
		return b, fmt.Errorf("wire: edge batch of %d records exceeds cap %d", count, MaxEdgeBatch)
	}
	b.Part = int(part)
	b.UpTo = int(upTo)
	for i := uint64(0); i < count; i++ {
		var p, f, t uint64
		var k byte
		if p, err = c.Uvarint("edge parent"); err != nil {
			return b, err
		}
		if f, err = c.Uvarint("edge from"); err != nil {
			return b, err
		}
		if t, err = c.Uvarint("edge to"); err != nil {
			return b, err
		}
		if k, err = c.Byte("edge kind"); err != nil {
			return b, err
		}
		b.Edges = append(b.Edges, SGEdge{Parent: uint32(p), From: uint32(f), To: uint32(t), Kind: k})
	}
	if c.Len() != 0 {
		return b, fmt.Errorf("wire: %d trailing bytes after edge batch", c.Len())
	}
	return b, nil
}
