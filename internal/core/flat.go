package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"seoracle/internal/perfecthash"
	"seoracle/internal/terrain"
)

// flat.go — the image of the SE oracle: its on-disk layout (KindFlat), the
// encoder that cuts it from a construction state, the loader that opens it,
// and its lazily inflated cold slabs. The image is the oracle's only
// representation: Build, Load and LoadBytes all yield an *Oracle reading it
// in place. A flat container is a normal SEDX envelope holding exactly one
// section (secFlat) whose payload — the "body" — is a
// pointer-free image of an SE oracle: a fixed header, a slab directory, and
// 8-byte-aligned slabs laid out so the hot Query probe is two loads off the
// body with no decode pass and no heap copy. Loading is O(#slabs): validate
// the header CRC and the directory bounds, slice the slabs, done — cold
// start is independent of index size.
//
// Body layout (all little-endian; offsets relative to the body, which the
// single-section envelope places at file offset 24, a multiple of 8):
//
//	0   magic   "SEF1"
//	4   flags   uint16  (bit 0: wide slots — node ids too large for compact keys)
//	6   _       uint16  (reserved, 0)
//	8   hdrCRC  uint32  (CRC32-IEEE over body[16 : 80+nSlabs*32])
//	12  _       uint32  (reserved, 0)
//	16  header  (64 bytes)
//	      +0  eps float64   +8  npoi u32    +12 layerN u32   +16 nNodes u32
//	      +20 root u32      +24 height u32  +28 nPairs u32   +32 nSlots u32
//	      +36 nBuckets u32  +40 nSlabs u32  +44 _ u32        +48 r0 float64
//	      +56 seed u64      (the compact perfect-hash seed actually used)
//	80  slab directory: nSlabs × {id u32, _ u32, off u64, len u64, rawLen u64}
//	    then the slabs, 8-aligned, in directory order, zero padding between
//
// Hot slabs are fixed-stride (their exact lengths are functions of the
// header, which the loader enforces):
//
//	leaf   npoi   × u32         POI → leaf node id
//	paths  npoi   × layerN × u32  the A_s layer slab; 0xFFFFFFFF = layer skipped
//	nodes  nNodes × 12 bytes    {center u32, parent u32 (0xFFFFFFFF = root), layer u16, parentLayer u16}
//	disp   nBuckets × u16       compact perfect-hash displacements
//	slots  nSlots × 12 bytes    {compact key u32, dist float64} — or × 16
//	                            {key u64, dist float64} under the wide flag
//
// The slot slab is a CHD ("hash, displace and compress") perfect-hash table
// (perfecthash.BuildCompact): the pair key is re-based to (a<<shift | b)
// with shift = bits(nNodes), and the distance sits inline next to its key,
// so a lookup is bucket hash → one u16 displacement load → slot hash → one
// key-compare-plus-distance load. Distances are the construction's exact
// float64 bits.
//
// Cold slabs (points, mesh) hold the flate-compressed bytes of the exact
// point- and mesh-section payloads (pointsSection / meshSection), inflated and
// validated lazily on first Nearest/NearestK/QueryPath use; Query never
// touches them. rawLen in the directory is their inflated size.
//
// Integrity: the envelope CRC covers a flat container loaded through a
// stream (Load), but the zero-copy byte path (LoadBytes) skips it — an O(n)
// checksum would re-linearize the O(1) cold start. The header CRC plus the
// structural validation above guarantee queries never fault on a mapped
// read; bit flips inside slab content surface as query errors or wrong
// distances, the documented trade for mmap-speed loading (run `sequery
// -check` or a streaming Load to verify a suspect file end to end).

const (
	flatBodyMagic = "SEF1"

	flatFlagWide = 1 << 0

	flatHeaderOff   = 16
	flatHeaderLen   = 64
	flatDirOff      = flatHeaderOff + flatHeaderLen
	flatDirEntryLen = 32
	flatMaxSlabs    = 16

	flatSlabLeaf   = 1
	flatSlabPaths  = 2
	flatSlabNodes  = 3
	flatSlabDisp   = 4
	flatSlabSlots  = 5
	flatSlabPoints = 6
	flatSlabMesh   = 7

	flatNodeStride     = 12
	flatSlotStride     = 12
	flatSlotStrideWide = 16

	// flatNone32 marks a skipped layer in the paths slab, a root's parent in
	// the nodes slab, and an empty compact slot (compact keys are < 2^31, so
	// the sentinel never collides with a real key).
	flatNone32 = 0xFFFFFFFF

	// flatStructBytes is the Oracle struct's own heap footprint charged
	// to MemoryBytes before any lazy decode runs.
	flatStructBytes = 256
)

// flatShift returns the bit width of node ids in an nNodes-node tree — the
// re-basing shift of the compact pair key (a<<shift | b).
func flatShift(nNodes int) uint {
	s := uint(bits.Len64(uint64(nNodes - 1)))
	if s == 0 {
		s = 1
	}
	return s
}

// flatAlign8 rounds an offset up to the next multiple of 8.
func flatAlign8(off uint64) uint64 { return (off + 7) &^ 7 }

// deflateBytes compresses raw with flate at best compression — the cold
// slab codec. Stdlib-only by design.
func deflateBytes(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflateSlab decompresses a cold slab to exactly rawLen bytes; shorter or
// longer streams are corruption.
func inflateSlab(comp []byte, rawLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(comp))
	defer r.Close()
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("inflating %d-byte slab: %w", rawLen, err)
	}
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("slab inflates past its declared %d bytes", rawLen)
	}
	return raw, nil
}

// --- encoder -----------------------------------------------------------------

// flatSlab is one directory entry queued for assembly.
type flatSlab struct {
	id     uint32
	data   []byte
	rawLen uint64 // inflated size for compressed slabs, 0 for fixed-stride ones
}

// hashSeed is the seed the image's compact perfect hash starts from; the
// seed actually used is recorded in the header. Fixed, so the same state
// always cuts the same image.
const hashSeed = 0x5e0ac1e

// flatBody lays out the image of an SE construction state. mesh is the
// terrain to embed as the cold mesh slab — nil when the enclosing container
// carries it once for all of its oracles.
func flatBody(st *seState, mesh *terrain.Mesh) ([]byte, error) {
	npoi := len(st.tree.leaf)
	if len(st.pts) != npoi {
		return nil, fmt.Errorf("core: oracle carries %d points for %d POIs; the flat layout requires a point table", len(st.pts), npoi)
	}
	nodes := st.tree.nodes
	nNodes := len(nodes)
	layerN := int(st.tree.height) + 1
	if nNodes < 1 || npoi < 1 || layerN < 1 || layerN > maxLayers {
		return nil, fmt.Errorf("core: oracle shape (%d nodes, %d POIs, %d layers) has no flat form", nNodes, npoi, layerN)
	}
	shift := flatShift(nNodes)
	wide := 2*shift > 31

	ckeys := make([]uint64, len(st.keys))
	for i, k := range st.keys {
		a, b := uint32(k>>32), uint32(k)
		if wide {
			ckeys[i] = k
		} else {
			ckeys[i] = uint64(a)<<shift | uint64(b)
		}
	}
	disp, slotOf, seed, err := perfecthash.BuildCompact(ckeys, hashSeed)
	if err != nil {
		return nil, fmt.Errorf("core: compact-hashing node pairs: %w", err)
	}
	nSlots := perfecthash.CompactSlots(len(ckeys))

	// Hot slabs. The paths slab is the A_s layer array of §3.4: row p holds,
	// per layer, the compressed node on POI p's leaf-to-root path, or
	// flatNone32 when the path skips that layer.
	leafB := make([]byte, 4*npoi)
	pathsB := make([]byte, 4*npoi*layerN)
	for i := range pathsB {
		pathsB[i] = 0xFF
	}
	for p, leaf := range st.tree.leaf {
		binary.LittleEndian.PutUint32(leafB[p*4:], uint32(leaf))
		row := pathsB[p*layerN*4:]
		for n := leaf; n >= 0; n = nodes[n].parent {
			binary.LittleEndian.PutUint32(row[nodes[n].layer*4:], uint32(n))
		}
	}
	nodesB := make([]byte, flatNodeStride*nNodes)
	for id, n := range nodes {
		parentLayer := int32(0)
		if n.parent >= 0 {
			parentLayer = nodes[n.parent].layer
		}
		rec := nodesB[id*flatNodeStride:]
		binary.LittleEndian.PutUint32(rec[0:], uint32(n.center))
		binary.LittleEndian.PutUint32(rec[4:], uint32(n.parent)) // -1 becomes flatNone32
		binary.LittleEndian.PutUint16(rec[8:], uint16(n.layer))
		binary.LittleEndian.PutUint16(rec[10:], uint16(parentLayer))
	}
	dispB := make([]byte, 2*len(disp))
	for i, d := range disp {
		binary.LittleEndian.PutUint16(dispB[i*2:], d)
	}
	stride := flatSlotStride
	if wide {
		stride = flatSlotStrideWide
	}
	slotsB := make([]byte, stride*nSlots)
	for s := 0; s < nSlots; s++ {
		if wide {
			binary.LittleEndian.PutUint64(slotsB[s*stride:], ^uint64(0))
		} else {
			binary.LittleEndian.PutUint32(slotsB[s*stride:], flatNone32)
		}
	}
	for i, s := range slotOf {
		rec := slotsB[int(s)*stride:]
		if wide {
			binary.LittleEndian.PutUint64(rec[0:], ckeys[i])
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(st.dist[i]))
		} else {
			binary.LittleEndian.PutUint32(rec[0:], uint32(ckeys[i]))
			binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(st.dist[i]))
		}
	}

	// Cold slabs: the exact point- and mesh-section bytes, flate-compressed,
	// so lazy decoding reuses decodePoints/decodeMesh validation unchanged.
	var pbuf bytes.Buffer
	if err := pointsSection(secPoints, st.pts).write(&pbuf); err != nil {
		return nil, err
	}
	ptsC, err := deflateBytes(pbuf.Bytes())
	if err != nil {
		return nil, err
	}
	slabs := []flatSlab{
		{id: flatSlabLeaf, data: leafB},
		{id: flatSlabPaths, data: pathsB},
		{id: flatSlabNodes, data: nodesB},
		{id: flatSlabDisp, data: dispB},
		{id: flatSlabSlots, data: slotsB},
		{id: flatSlabPoints, data: ptsC, rawLen: uint64(pbuf.Len())},
	}
	if mesh != nil {
		var mbuf bytes.Buffer
		if err := meshSection(secMesh, mesh).write(&mbuf); err != nil {
			return nil, err
		}
		meshC, err := deflateBytes(mbuf.Bytes())
		if err != nil {
			return nil, err
		}
		slabs = append(slabs, flatSlab{id: flatSlabMesh, data: meshC, rawLen: uint64(mbuf.Len())})
	}

	// Directory + assembly.
	dirEnd := uint64(flatDirOff + len(slabs)*flatDirEntryLen)
	off := flatAlign8(dirEnd)
	offs := make([]uint64, len(slabs))
	for i, s := range slabs {
		offs[i] = off
		off = flatAlign8(off + uint64(len(s.data)))
	}
	body := make([]byte, off)
	copy(body[0:], flatBodyMagic)
	var flags uint16
	if wide {
		flags |= flatFlagWide
	}
	binary.LittleEndian.PutUint16(body[4:], flags)
	h := body[flatHeaderOff:]
	binary.LittleEndian.PutUint64(h[0:], math.Float64bits(st.eps))
	binary.LittleEndian.PutUint32(h[8:], uint32(npoi))
	binary.LittleEndian.PutUint32(h[12:], uint32(layerN))
	binary.LittleEndian.PutUint32(h[16:], uint32(nNodes))
	binary.LittleEndian.PutUint32(h[20:], uint32(st.tree.root))
	binary.LittleEndian.PutUint32(h[24:], uint32(st.tree.height))
	binary.LittleEndian.PutUint32(h[28:], uint32(len(st.keys)))
	binary.LittleEndian.PutUint32(h[32:], uint32(nSlots))
	binary.LittleEndian.PutUint32(h[36:], uint32(len(disp)))
	binary.LittleEndian.PutUint32(h[40:], uint32(len(slabs)))
	binary.LittleEndian.PutUint64(h[48:], math.Float64bits(st.tree.r0))
	binary.LittleEndian.PutUint64(h[56:], seed)
	for i, s := range slabs {
		ent := body[flatDirOff+i*flatDirEntryLen:]
		binary.LittleEndian.PutUint32(ent[0:], s.id)
		binary.LittleEndian.PutUint64(ent[8:], offs[i])
		binary.LittleEndian.PutUint64(ent[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint64(ent[24:], s.rawLen)
		copy(body[offs[i]:], s.data)
	}
	binary.LittleEndian.PutUint32(body[8:], crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]))
	return body, nil
}

// ConvertFlat returns idx unchanged for the kinds that have a flat form —
// an SE oracle and a multi container, whose SE members are flat already —
// and an error for every other kind.
//
// Deprecated: every SE oracle is flat; Build and Load return the flat image
// directly. ConvertFlat remains for callers written against the two-layout
// API.
func ConvertFlat(idx DistanceIndex) (DistanceIndex, error) {
	switch idx.(type) {
	case *Oracle, *ShardedIndex:
		return idx, nil
	}
	return nil, fmt.Errorf("core: kind %s has no flat layout (flat supports se and multi)", idx.Stats().Kind)
}

// decodeFlatContainer opens an Oracle from a flat-kind section map —
// the kind registry's entry point for stream loads.
func decodeFlatContainer(secs map[uint32][]byte) (DistanceIndex, error) {
	return decodeFlatSecs(secs, nil)
}

// decodeFlatSecs validates the flat body found in the section map; keep is
// threaded into the oracle so a memory mapping backing the bytes stays
// alive while the oracle is reachable.
func decodeFlatSecs(secs map[uint32][]byte, keep any) (*Oracle, error) {
	if err := requireSections(secs, secFlat); err != nil {
		return nil, err
	}
	if len(secs) != 1 {
		// An image inside an a2a or dynamic container, re-tagged: refuse it
		// rather than serve the inner oracle as if it were the whole index.
		return nil, fmt.Errorf("flat container holds %d sections, want exactly the image section", len(secs))
	}
	return decodeFlatBody(secs[secFlat], keep)
}

// decodeFlatBody is the O(#slabs) structural validation pass: header magic
// and CRC, sane header fields, and a slab directory whose entries are
// in-bounds, 8-aligned, non-overlapping and exactly the lengths the header
// implies. Everything a query later reads is either covered here or bounds-
// guarded at access time, so corrupt content yields errors, never faults.
func decodeFlatBody(body []byte, keep any) (*Oracle, error) {
	if len(body) < flatDirOff {
		return nil, fmt.Errorf("flat body truncated (%d bytes)", len(body))
	}
	if string(body[:4]) != flatBodyMagic {
		return nil, fmt.Errorf("bad flat body magic %q", body[:4])
	}
	flags := binary.LittleEndian.Uint16(body[4:])
	if flags&^uint16(flatFlagWide) != 0 {
		return nil, fmt.Errorf("unknown flat flags %#x", flags)
	}
	h := body[flatHeaderOff:]
	nSlabs := int(binary.LittleEndian.Uint32(h[40:]))
	if nSlabs < 1 || nSlabs > flatMaxSlabs {
		return nil, fmt.Errorf("flat body declares %d slabs (want 1..%d)", nSlabs, flatMaxSlabs)
	}
	dirEnd := flatDirOff + nSlabs*flatDirEntryLen
	if len(body) < dirEnd {
		return nil, fmt.Errorf("flat slab directory truncated (%d bytes, need %d)", len(body), dirEnd)
	}
	if stored, computed := binary.LittleEndian.Uint32(body[8:]), crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]); stored != computed {
		return nil, fmt.Errorf("flat header CRC mismatch (stored %#x, computed %#x)", stored, computed)
	}

	o := &Oracle{
		body:     body,
		keep:     keep,
		eps:      math.Float64frombits(binary.LittleEndian.Uint64(h[0:])),
		npoi:     int(binary.LittleEndian.Uint32(h[8:])),
		layerN:   int(binary.LittleEndian.Uint32(h[12:])),
		nNodes:   int(binary.LittleEndian.Uint32(h[16:])),
		root:     int32(binary.LittleEndian.Uint32(h[20:])),
		height:   int(binary.LittleEndian.Uint32(h[24:])),
		nPairs:   int(binary.LittleEndian.Uint32(h[28:])),
		nSlots:   int(binary.LittleEndian.Uint32(h[32:])),
		nBuckets: int(binary.LittleEndian.Uint32(h[36:])),
		r0:       math.Float64frombits(binary.LittleEndian.Uint64(h[48:])),
		seed:     binary.LittleEndian.Uint64(h[56:]),
		wide:     flags&flatFlagWide != 0,
	}
	if !finite(o.eps) || o.eps <= 0 {
		return nil, fmt.Errorf("flat header epsilon %g not positive and finite", o.eps)
	}
	if !finite(o.r0) || o.r0 < 0 {
		return nil, fmt.Errorf("flat header r0 %g invalid", o.r0)
	}
	if o.npoi < 1 || o.npoi > 1<<30 {
		return nil, fmt.Errorf("flat header declares %d POIs", o.npoi)
	}
	if o.layerN < 1 || o.layerN > maxLayers || o.height != o.layerN-1 {
		return nil, fmt.Errorf("flat header layers %d / height %d inconsistent", o.layerN, o.height)
	}
	if o.nNodes < 1 || o.nNodes > 1<<30 || o.root < 0 || int(o.root) >= o.nNodes {
		return nil, fmt.Errorf("flat header declares %d nodes, root %d", o.nNodes, o.root)
	}
	if o.nPairs < 0 || o.nPairs > 1<<30 ||
		o.nSlots != perfecthash.CompactSlots(o.nPairs) ||
		o.nBuckets != perfecthash.CompactBuckets(o.nPairs) {
		return nil, fmt.Errorf("flat header hash shape (%d pairs, %d slots, %d buckets) inconsistent",
			o.nPairs, o.nSlots, o.nBuckets)
	}
	o.shift = flatShift(o.nNodes)
	if o.wide != (2*o.shift > 31) {
		return nil, fmt.Errorf("flat wide flag %v inconsistent with %d nodes", o.wide, o.nNodes)
	}
	stride := flatSlotStride
	if o.wide {
		stride = flatSlotStrideWide
	}
	want := map[uint32]uint64{
		flatSlabLeaf:  4 * uint64(o.npoi),
		flatSlabPaths: 4 * uint64(o.npoi) * uint64(o.layerN),
		flatSlabNodes: flatNodeStride * uint64(o.nNodes),
		flatSlabDisp:  2 * uint64(o.nBuckets),
		flatSlabSlots: uint64(stride) * uint64(o.nSlots),
	}
	prevEnd := uint64(dirEnd)
	seen := map[uint32]bool{}
	for i := 0; i < nSlabs; i++ {
		ent := body[flatDirOff+i*flatDirEntryLen:]
		id := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		rawLen := binary.LittleEndian.Uint64(ent[24:])
		if seen[id] {
			return nil, fmt.Errorf("duplicate flat slab %d", id)
		}
		seen[id] = true
		if off%8 != 0 {
			return nil, fmt.Errorf("flat slab %d misaligned (offset %d)", id, off)
		}
		if off < prevEnd || length > uint64(len(body)) || off > uint64(len(body))-length {
			return nil, fmt.Errorf("flat slab %d [%d,+%d) overlaps or exceeds the %d-byte body", id, off, length, len(body))
		}
		prevEnd = off + length
		data := body[off : off+length]
		switch id {
		case flatSlabLeaf, flatSlabPaths, flatSlabNodes, flatSlabDisp, flatSlabSlots:
			if length != want[id] {
				return nil, fmt.Errorf("flat slab %d holds %d bytes, header implies %d", id, length, want[id])
			}
			if rawLen != 0 {
				return nil, fmt.Errorf("flat slab %d declares a raw length (%d) but is not compressed", id, rawLen)
			}
			switch id {
			case flatSlabLeaf:
				o.leaf = data
			case flatSlabPaths:
				o.paths = data
			case flatSlabNodes:
				o.nodes = data
			case flatSlabDisp:
				o.disp = data
			case flatSlabSlots:
				o.slots = data
			}
		case flatSlabPoints:
			if length == 0 || rawLen != 8+uint64(o.npoi)*pointRecordSize {
				return nil, fmt.Errorf("flat point slab declares %d raw bytes for %d POIs", rawLen, o.npoi)
			}
			o.ptsC, o.ptsRaw = data, int(rawLen)
		case flatSlabMesh:
			if length == 0 || rawLen < 16 || rawLen > 1<<40 {
				return nil, fmt.Errorf("flat mesh slab declares %d raw bytes", rawLen)
			}
			o.meshC, o.meshRaw = data, int(rawLen)
		default:
			return nil, fmt.Errorf("unknown flat slab id %d", id)
		}
	}
	for _, id := range []uint32{flatSlabLeaf, flatSlabPaths, flatSlabNodes, flatSlabDisp, flatSlabSlots, flatSlabPoints} {
		if !seen[id] {
			return nil, fmt.Errorf("flat body missing required slab %d", id)
		}
	}
	return o, nil
}

// --- lazy cold slabs ---------------------------------------------------------

// points inflates and validates the point slab on first use; Query never
// calls this, which is what keeps cold start O(1).
func (o *Oracle) points() ([]terrain.SurfacePoint, error) {
	o.ptsOnce.Do(func() {
		raw, err := inflateSlab(o.ptsC, o.ptsRaw)
		if err != nil {
			o.ptsErr = fmt.Errorf("core: flat point slab: %w", err)
			return
		}
		pts, err := decodePoints(raw)
		if err != nil {
			o.ptsErr = fmt.Errorf("core: flat point slab: %w", err)
			return
		}
		if len(pts) != o.npoi {
			o.ptsErr = fmt.Errorf("core: flat point slab holds %d points, header says %d", len(pts), o.npoi)
			return
		}
		o.pts = pts
		o.heapExtra.Add(int64(len(pts)) * pointRecordSize)
	})
	return o.pts, o.ptsErr
}

// meshRef resolves the terrain for path queries: the adopted mesh, else the
// embedded mesh slab (inflated and rebuilt on first use);
// ErrNoPathGeometry when the oracle has neither.
func (o *Oracle) meshRef() (*terrain.Mesh, error) {
	if o.adopted != nil {
		return o.adopted, nil
	}
	if o.meshC == nil {
		return nil, ErrNoPathGeometry
	}
	o.meshOnce.Do(func() {
		raw, err := inflateSlab(o.meshC, o.meshRaw)
		if err != nil {
			o.meshErr = fmt.Errorf("core: flat mesh slab: %w", err)
			return
		}
		m, err := decodeMesh(raw)
		if err != nil {
			o.meshErr = fmt.Errorf("core: flat mesh slab: %w", err)
			return
		}
		o.mesh = m
		o.heapExtra.Add(int64(o.meshRaw) * 2) // verts+faces plus rebuilt adjacency
	})
	return o.mesh, o.meshErr
}

// Mesh returns the oracle's terrain if it is already resident (adopted, or
// embedded and inflated), nil otherwise. It never triggers the lazy
// inflate.
func (o *Oracle) Mesh() *terrain.Mesh {
	if o.adopted != nil {
		return o.adopted
	}
	return o.mesh
}
