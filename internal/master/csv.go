package master

// This file implements the chunk-parallel CSV ingest behind
// certainfix.NewFromCSV: the boot reads the master file on every core and
// still assigns every value the id the serial Builder.Add stream would.
//
// The caller's goroutine cuts the file into chunks of whole records
// (relation.CSVReader) and hands them to GOMAXPROCS workers. A worker
// decodes its chunk and interns it into a dictionary of the chunk's own, so
// a local id is the rank of the value's first appearance in the chunk, and
// the chunk's rows become rows of local ids. The caller's goroutine merges
// the chunks in file order: it interns each chunk's values in local id
// order — a value new to the master is met there exactly where the serial
// stream would meet it, so it gets the serial id — then rewrites the
// chunk's rows through that translation into the Builder's rows. Ids, and
// with them every key, table, image, token and Merkle root, are those of
// the serial build at every GOMAXPROCS.
//
// What is in flight is a fixed ring of csvSlotsPerWorker slots per worker,
// each a block of the file (64 KiB unless one record is longer), its
// dictionary and its rows, recycled in file order: the read holds the same
// half megabyte or so per core whatever |Dm| is.

import (
	"io"
	"runtime"
	"sync"

	"repro/internal/relation"
)

// csvBlock is the size of the blocks the master file is read in.
const csvBlock = 64 << 10

// csvSlotsPerWorker is the ring's depth per worker: a chunk decoding, one
// decoded and waiting for the merge, one read ahead.
const csvSlotsPerWorker = 3

// csvSlot is one chunk of the ring and what its worker made of it.
type csvSlot struct {
	chunk relation.CSVChunk
	syms  *relation.Symbols // the chunk's values, ids in first-seen order
	cells []uint32          // the chunk's rows as ids into syms, end to end
	err   error             // what stopped the chunk's decode, if anything did
	ids   []uint32          // at the merge: the master's id of each of syms
	done  chan struct{}     // the worker is through with the chunk
}

// ReadCSV adds the master tuples of a CSV stream in relation.ReadCSV's
// format, in file order, parsing and interning them on GOMAXPROCS workers.
// The snapshot is the one Add would build from the same rows. On an error —
// a refused header or record, a cell that does not decode, the reader's
// own, each with the text relation.ReadCSV gives it — the rows before the
// failing one have been added and nothing after it.
func (b *Builder) ReadCSV(rd io.Reader) error {
	return b.readCSV(rd, csvBlock)
}

func (b *Builder) readCSV(rd io.Reader, block int) error {
	schema := b.d.schema
	cr, err := relation.NewCSVReader(schema, rd, block)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	ring := make([]csvSlot, csvSlotsPerWorker*workers)
	for i := range ring {
		ring[i].syms, ring[i].done = relation.NewSymbols(), make(chan struct{}, 1)
	}
	work := make(chan *csvSlot, len(ring)) // room for the whole ring: the feed never blocks
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arity := schema.Arity()
			t, last, lastID := make(relation.Tuple, arity), make(relation.Tuple, arity), make([]uint32, arity)
			for s := range work {
				s.decode(schema, t, last, lastID)
				s.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	var readErr error
	for read, merged := 0, 0; ; merged++ {
		for readErr == nil && read-merged < len(ring) {
			s := &ring[read%len(ring)]
			if readErr = cr.Next(&s.chunk); readErr == nil {
				work <- s
				read++
			}
		}
		if merged == read {
			if readErr == io.EOF {
				return nil
			}
			return readErr
		}
		s := &ring[merged%len(ring)]
		<-s.done
		if err := b.merge(s); err != nil {
			return err
		}
	}
}

// decode decodes the slot's chunk into rows of ids of its own dictionary.
// last and lastID memoize, per column, the previous row's cell: in master
// data most cells repeat the one above them (sorted keys, low-cardinality
// columns), and those skip the dictionary.
func (s *csvSlot) decode(schema *relation.Schema, t, last relation.Tuple, lastID []uint32) {
	s.syms.Reset()
	s.cells = s.cells[:0]
	first := true
	s.err = s.chunk.Decode(schema, t, func(t relation.Tuple) {
		for c, v := range t {
			if first || v != last[c] {
				last[c], lastID[c] = v, s.syms.Intern(v)
			}
			s.cells = append(s.cells, lastID[c])
		}
		first = false
	})
}

// merge interns the slot's values in their chunk's first-seen order, then
// appends its rows translated to the master's ids, and returns the error
// that stopped the chunk's decode, numbered among the master's rows.
func (b *Builder) merge(s *csvSlot) error {
	d := b.d
	s.ids = s.ids[:0]
	for id := range s.syms.Len() {
		s.ids = append(s.ids, d.syms.InternClone(s.syms.Value(uint32(id))))
	}
	before, arity := d.rows.Len(), d.schema.Arity()
	for cells := s.cells; len(cells) > 0; cells = cells[arity:] {
		row := b.newRow(arity)
		for c := range row {
			row[c] = s.ids[cells[c]]
		}
		d.rows.Append(row)
	}
	if s.err != nil {
		return relation.CSVErrorAfter(s.err, before)
	}
	return nil
}
