package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/storage/wal"
)

// Data-directory layout.
const (
	// PagesFileName is the page file inside a durable data directory.
	PagesFileName = "pages.db"
	// WALFileName is the write-ahead log inside a durable data directory.
	WALFileName = "wal.log"
)

// defaultCheckpointBytes triggers an automatic checkpoint when the WAL
// grows past it (64 MiB).
const defaultCheckpointBytes = 64 << 20

// Persistent-catalog constants. The catalog lives in a chain of
// reserved pages headed by page 0; each chain page carries a 12-byte
// header (next page id u32, the page-LSN stamp word u32 — bytes 4-8 as
// in every page type — and payload length u32) followed by a slice of
// the JSON catalog document.
const (
	catalogMagic   = "jackpine-catalog"
	catalogVersion = 1
	catHeaderSize  = 12
	catNoNext      = 0xFFFFFFFF
	catHeadPage    = 0
	catDataCap     = storage.PageSize - catHeaderSize
	catMaxPages    = 4096 // chain-length sanity bound while following next pointers
)

// catalogDoc is the persistent schema: everything needed to rebuild the
// in-memory engine state from the page file alone. Indexes are stored
// as definitions, not contents — both index kinds bulk-load
// deterministically from a heap scan, so rebuilding on open reproduces
// the exact structures (and transcripts) of the engine that was closed.
type catalogDoc struct {
	Magic   string         `json:"magic"`
	Version int            `json:"version"`
	Profile string         `json:"profile"`
	Tables  []catalogTable `json:"tables"`
}

type catalogColumn struct {
	Name string `json:"name"`
	Type int    `json:"type"`
}

type catalogTable struct {
	Name     string          `json:"name"`
	Columns  []catalogColumn `json:"columns"`
	Pages    []uint32        `json:"pages"`     // heap data pages in allocation order
	LastPage int             `json:"last_page"` // heap insertion cursor (index into Pages)
	Spatial  []string        `json:"spatial"`   // spatially indexed columns, sorted
	Attr     [][]string      `json:"attr"`      // attribute index column lists, creation order
}

// OpenDurable opens (creating if necessary) a durable engine rooted at
// dir: a FileStore page file under write-ahead logging with a
// persistent catalog. Opening replays the WAL's committed prefix onto
// the page file, then rebuilds tables and indexes from the catalog —
// the reopened engine serves byte-identical results to the one that
// wrote the directory. Options apply as in Open; WithStore is
// overridden (the store is the directory's page file).
func OpenDurable(profile Profile, dir string, opts ...Option) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create data dir: %w", err)
	}
	fs, err := storage.NewFileStore(filepath.Join(dir, PagesFileName))
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(filepath.Join(dir, WALFileName), fs)
	if err != nil {
		if cerr := fs.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close store: %w)", err, cerr)
		}
		return nil, err
	}
	e := Open(profile, append(append([]Option(nil), opts...), WithStore(fs))...)
	e.wal = w
	e.dataDir = dir
	e.ckptBytes = defaultCheckpointBytes
	e.pool.AttachWAL(w)

	fail := func(err error) (*Engine, error) {
		if cerr := w.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close wal: %w)", err, cerr)
		}
		if cerr := fs.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close store: %w)", err, cerr)
		}
		return nil, err
	}

	if fs.NumPages() == 0 {
		// Brand-new directory: reserve the catalog head page and commit
		// the empty catalog so even an untouched database reopens.
		id, err := e.pool.Allocate()
		if err != nil {
			return fail(err)
		}
		if id != catHeadPage {
			return fail(fmt.Errorf("engine: catalog head allocated as page %d, want %d", id, catHeadPage))
		}
		e.catPages = []uint32{catHeadPage}
		if err := e.commitDurable(); err != nil {
			return fail(err)
		}
		return e, nil
	}

	doc, pages, raw, err := e.readCatalog()
	if err != nil {
		return fail(err)
	}
	if doc == nil {
		// The page file exists (chunked preallocation, or flushes from a
		// load whose first commit never became durable) but no committed
		// catalog does: by the redo protocol nothing in it is reachable
		// state, so treat the directory as fresh. The head page may not
		// be allocated yet.
		for fs.NumPages() <= catHeadPage {
			if _, err := e.pool.Allocate(); err != nil {
				return fail(err)
			}
		}
		e.catPages = []uint32{catHeadPage}
		if err := e.commitDurable(); err != nil {
			return fail(err)
		}
		return e, nil
	}
	if doc.Profile != profile.Name {
		return fail(fmt.Errorf("engine: data dir %s was written by profile %q, opened as %q", dir, doc.Profile, profile.Name))
	}
	e.catPages = pages
	e.catLast = raw
	for _, ct := range doc.Tables {
		cols := make([]sql.Column, len(ct.Columns))
		for i, c := range ct.Columns {
			cols[i] = sql.Column{Name: c.Name, Type: storage.ValueType(c.Type)}
		}
		heap, err := storage.OpenHeapFile(e.pool, ct.Pages, ct.LastPage)
		if err != nil {
			return fail(fmt.Errorf("engine: reopen table %s: %w", ct.Name, err))
		}
		t := newTableFromHeap(ct.Name, cols, heap)
		e.tables[ct.Name] = t //lint:allow lockdiscipline single-threaded open; the engine is not published until OpenDurable returns
		for _, col := range ct.Spatial {
			if err := t.buildSpatialIndex(col, profile.SpatialIndex, profile.GridDim); err != nil {
				return fail(fmt.Errorf("engine: rebuild spatial index %s.%s: %w", ct.Name, col, err))
			}
		}
		for _, columns := range ct.Attr {
			if err := t.buildAttrIndex(columns); err != nil {
				return fail(fmt.Errorf("engine: rebuild index on %s: %w", ct.Name, err))
			}
		}
	}
	return e, nil
}

// Durable reports whether the engine is under write-ahead logging.
func (e *Engine) Durable() bool { return e.wal != nil }

// DataDir returns the durable data directory ("" for in-memory engines).
func (e *Engine) DataDir() string { return e.dataDir }

// WALStats snapshots the write-ahead log counters; ok is false for
// in-memory engines.
func (e *Engine) WALStats() (stats wal.Stats, ok bool) {
	if e.wal == nil {
		return wal.Stats{}, false
	}
	return e.wal.Stats(), true
}

// Checkpoint forces a fuzzy checkpoint: drain in-flight commits, flush
// every dirty page (in WAL order), sync the page store, and rotate the
// log. A no-op for in-memory engines. Exec triggers it automatically
// when the WAL passes the size threshold; explicit calls bound recovery
// time before a planned kill.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	e.inflight.Wait()
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	if err := e.store.Sync(); err != nil {
		return err
	}
	return e.wal.Rotate()
}

// commitLocked runs the commit protocol for whatever the last statement
// dirtied: serialize the catalog into its reserved pages, append a
// page-image record for every uncaptured dirty frame, and append the
// commit record. Caller holds e.mu; the returned end LSN must be passed
// to wal.Sync *outside* e.mu (that is what batches fsyncs across
// committers), followed by e.inflight.Done(). end == 0 means the
// statement changed nothing durable and no force is needed.
func (e *Engine) commitLocked() (end uint64, err error) {
	txn := e.wal.Begin()
	if err := e.writeCatalogLocked(); err != nil {
		return 0, err
	}
	logged, err := e.pool.LogDirty(txn)
	if err != nil {
		return 0, err
	}
	if logged == 0 {
		return 0, nil
	}
	end, err = e.wal.AppendCommit(txn)
	if err != nil {
		return 0, err
	}
	e.inflight.Add(1)
	return end, nil
}

// commitDurable is commitLocked plus the force, for callers not already
// holding e.mu (bootstrap, the loader's explicit sync points).
func (e *Engine) commitDurable() error {
	e.mu.Lock()
	end, err := e.commitLocked()
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if end == 0 {
		return nil
	}
	serr := e.wal.Sync(end)
	e.inflight.Done()
	return serr
}

// buildCatalogLocked snapshots the schema as a catalog document.
// Iteration orders are fixed (sorted names) so identical states
// serialize identically and the unchanged-catalog fast path fires.
func (e *Engine) buildCatalogLocked() catalogDoc {
	doc := catalogDoc{Magic: catalogMagic, Version: catalogVersion, Profile: e.profile.Name}
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.tables[n]
		ct := catalogTable{
			Name:     n,
			Pages:    t.heap.Pages(),
			LastPage: t.heap.LastPage(),
		}
		for _, c := range t.cols {
			ct.Columns = append(ct.Columns, catalogColumn{Name: c.Name, Type: int(c.Type)})
		}
		t.mu.RLock()
		for col := range t.spatial {
			ct.Spatial = append(ct.Spatial, col)
		}
		sort.Strings(ct.Spatial)
		for _, ix := range t.attr {
			ct.Attr = append(ct.Attr, ix.columns)
		}
		t.mu.RUnlock()
		doc.Tables = append(doc.Tables, ct)
	}
	return doc
}

// writeCatalogLocked serializes the catalog into its page chain if it
// changed since the last commit. The dirtied pages ride the same commit
// as the data they describe, so catalog and data are always mutually
// consistent after recovery.
func (e *Engine) writeCatalogLocked() error {
	doc := e.buildCatalogLocked()
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("engine: serialize catalog: %w", err)
	}
	if bytes.Equal(data, e.catLast) {
		return nil
	}
	need := (len(data) + catDataCap - 1) / catDataCap
	if need == 0 {
		need = 1
	}
	for len(e.catPages) < need {
		id, err := e.pool.Allocate()
		if err != nil {
			return err
		}
		e.catPages = append(e.catPages, id)
	}
	rest := data
	for i := 0; i < need; i++ {
		id := e.catPages[i]
		chunk := rest
		if len(chunk) > catDataCap {
			chunk = chunk[:catDataCap]
		}
		rest = rest[len(chunk):]
		buf, err := e.pool.Pin(id)
		if err != nil {
			return err
		}
		clear(buf)
		next := uint32(catNoNext)
		if i+1 < need {
			next = e.catPages[i+1]
		}
		binary.LittleEndian.PutUint32(buf[0:], next)
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(chunk)))
		copy(buf[catHeaderSize:], chunk)
		e.pool.Unpin(id, true)
	}
	e.catLast = data
	return nil
}

// readCatalog follows the chain from the head page and decodes the
// document. A virgin head page (all zeros — the directory was created
// but the first commit never became durable) returns doc == nil with no
// error; anything structurally invalid is a hard error.
func (e *Engine) readCatalog() (doc *catalogDoc, pages []uint32, raw []byte, err error) {
	id := uint32(catHeadPage)
	for {
		buf, err := e.pool.Pin(id)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("engine: read catalog page %d: %w", id, err)
		}
		next := binary.LittleEndian.Uint32(buf[0:])
		length := binary.LittleEndian.Uint32(buf[8:])
		if id == catHeadPage && next == 0 && length == 0 {
			e.pool.Unpin(id, false)
			return nil, nil, nil, nil
		}
		if length > catDataCap {
			e.pool.Unpin(id, false)
			return nil, nil, nil, fmt.Errorf("engine: catalog page %d declares %d payload bytes", id, length)
		}
		raw = append(raw, buf[catHeaderSize:catHeaderSize+length]...)
		e.pool.Unpin(id, false)
		pages = append(pages, id)
		if next == catNoNext {
			break
		}
		if next >= e.store.NumPages() || len(pages) >= catMaxPages {
			return nil, nil, nil, fmt.Errorf("engine: catalog chain broken at page %d (next %d)", id, next)
		}
		id = next
	}
	var d catalogDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: decode catalog: %w", err)
	}
	if d.Magic != catalogMagic {
		return nil, nil, nil, fmt.Errorf("engine: catalog magic %q", d.Magic)
	}
	if d.Version != catalogVersion {
		return nil, nil, nil, fmt.Errorf("engine: catalog version %d, want %d", d.Version, catalogVersion)
	}
	return &d, pages, raw, nil
}
