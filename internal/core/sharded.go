package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"seoracle/internal/terrain"
)

// sharded.go — the multi-index container. A ShardedIndex bundles many member
// indexes (any non-multi kind) behind one DistanceIndex, each member tagged
// with a name and a planar bounding box. The serving layer routes requests to
// a member by name or by locating coordinates in a member's bbox, and
// unnamed id-addressed requests to the index itself, which answers in the
// global id space of its hierarchy (hierarchy.go); sebuild -shards=K
// produces one by tiling the terrain and building one SE oracle per tile. On
// disk it is a KindMulti container: a manifest section naming every member
// (name, kind, bbox), the hierarchy section, followed by the members'
// existing tagged container bodies, one per section.

const (
	// maxShardMembers bounds how many members one multi container may carry
	// (the envelope's maxContainerSections leaves room for 63 member
	// sections; 48 keeps headroom for future shared sections).
	maxShardMembers = 48
	// maxShardNameLen bounds one member name.
	maxShardNameLen = 64
)

// BBox2D is a closed planar axis-aligned bounding box.
type BBox2D struct {
	MinX, MinY, MaxX, MaxY float64
}

// Containment is half-open [min, max) per axis — a point on a shared tile
// boundary belongs to exactly one member — and only ShardedIndex.contains
// implements it, because the rule needs the tiling's outer bounds (the
// outermost max edges have no neighboring tile to own them). There is
// deliberately no per-box Contains method: it could not answer the outer
// boundary consistently with Locate.

// dist2 returns the squared planar distance from (x, y) to the box (zero
// inside it).
func (b BBox2D) dist2(x, y float64) float64 {
	dx := math.Max(0, math.Max(b.MinX-x, x-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-y, y-b.MaxY))
	return dx*dx + dy*dy
}

// validate rejects the boxes no routing decision can trust: non-finite
// corners and inverted (empty) extents. A degenerate point box is legal — a
// shard of one POI has zero extent.
func (b BBox2D) validate() error {
	for _, v := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		if !finite(v) {
			return fmt.Errorf("bbox corner %g is not finite", v)
		}
	}
	if b.MinX > b.MaxX || b.MinY > b.MaxY {
		return fmt.Errorf("bbox [%g,%g]x[%g,%g] is inverted", b.MinX, b.MaxX, b.MinY, b.MaxY)
	}
	return nil
}

// ShardMember is one named member of a ShardedIndex. Its index ids are local
// to the member: POI 0 of one shard is unrelated to POI 0 of another. The
// multi index itself answers in the global id space instead (see
// hierarchy.go).
type ShardMember struct {
	Name  string
	BBox  BBox2D
	Index DistanceIndex
}

// ShardedIndex is a multi-index container: several member indexes served as
// one unit behind one DistanceIndex. Every multi carries a hierarchy (see
// hierarchy.go): its level-0 members' ids, concatenated in manifest order,
// form the global id space the id-addressed queries answer in, and
// cross-member pairs route through boundary portals or a coarse level when
// the container has them. A container without coarse members is a
// single-level hierarchy.
type ShardedIndex struct {
	members []ShardMember
	byName  map[string]int
	// maxX/maxY are the member bboxes' global maxima: under half-open
	// containment the max edge of a tile belongs to its neighbor, except on
	// the index's outer boundary, where these maxima re-admit it.
	maxX, maxY float64

	// hier is the LOD/portal metadata over every manifest ordinal, ord maps
	// member slice index → manifest ordinal, memAt maps manifest ordinal →
	// member slice index (-1 when the member is absent: quarantined at load
	// or removed by Without), and ordName keeps every ordinal's manifest
	// name — including absent ones, so global-id errors stay stable under
	// degraded loads.
	hier    *hierMeta
	ord     []int
	memAt   []int
	ordName []string

	// rs tracks lazy members under a memory budget and rawMesh keeps the
	// raw shared-mesh section bytes for byte-identical lazy re-encode; both
	// are nil on eager loads (see lazy.go).
	rs      *residentSet
	rawMesh []byte

	portalQueries atomic.Int64
	coarseQueries atomic.Int64
}

// validShardName enforces the member-name alphabet: names travel in URLs
// (?index=) and file manifests, so they are restricted to [A-Za-z0-9._-].
func validShardName(name string) error {
	if name == "" {
		return fmt.Errorf("empty member name")
	}
	if len(name) > maxShardNameLen {
		return fmt.Errorf("member name %d bytes long (max %d)", len(name), maxShardNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("member name %q contains %q (allowed: letters, digits, '.', '_', '-')", name, c)
		}
	}
	return nil
}

// NewShardedIndex builds a multi index over members, validating names
// (unique, URL-safe), bboxes and member kinds (nesting multi inside multi is
// not supported). The index is a single-level hierarchy: every member's ids
// join the global id space in member order, each member contributing its
// id count at construction (Stats().Points, plus a dynamic oracle's
// tombstoned ids, which keep their numbers).
func NewShardedIndex(members []ShardMember) (*ShardedIndex, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: multi index needs at least one member")
	}
	if len(members) > maxShardMembers {
		return nil, fmt.Errorf("core: multi index holds %d members (max %d)", len(members), maxShardMembers)
	}
	npois := make([]int64, len(members))
	bboxes := make([]BBox2D, len(members))
	for i, m := range members {
		if m.Index == nil {
			return nil, fmt.Errorf("core: member %q has no index", m.Name)
		}
		npois[i], bboxes[i] = idCount(m.Index), m.BBox
	}
	h, err := singleLevel(npois, bboxes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return newSharded(members, h)
}

// idCount is the size of a member's id space.
func idCount(idx DistanceIndex) int64 {
	st := idx.Stats()
	return int64(st.Points + st.Tombstones)
}

// newSharded is the one constructor behind every ShardedIndex: byOrd holds
// every manifest ordinal's member in order, with a nil Index where the
// member is absent (quarantined by a tolerant load, or removed by Without),
// and h is the hierarchy over all of them. It validates the present members
// and derives the routing tables.
func newSharded(byOrd []ShardMember, h *hierMeta) (*ShardedIndex, error) {
	sh := &ShardedIndex{
		byName: make(map[string]int, len(byOrd)),
		maxX:   math.Inf(-1), maxY: math.Inf(-1),
		hier:    h,
		memAt:   make([]int, len(byOrd)),
		ordName: make([]string, len(byOrd)),
	}
	for i, m := range byOrd {
		sh.ordName[i], sh.memAt[i] = m.Name, -1
		if m.Index == nil {
			continue
		}
		if err := validShardName(m.Name); err != nil {
			return nil, fmt.Errorf("core: member %d: %v", i, err)
		}
		if _, dup := sh.byName[m.Name]; dup {
			return nil, fmt.Errorf("core: duplicate member name %q", m.Name)
		}
		if err := m.BBox.validate(); err != nil {
			return nil, fmt.Errorf("core: member %q: %v", m.Name, err)
		}
		if _, nested := m.Index.(*ShardedIndex); nested {
			return nil, fmt.Errorf("core: member %q is itself a multi index (nesting unsupported)", m.Name)
		}
		sh.byName[m.Name] = len(sh.members)
		sh.memAt[i] = len(sh.members)
		sh.ord = append(sh.ord, i)
		sh.members = append(sh.members, m)
		sh.maxX = math.Max(sh.maxX, m.BBox.MaxX)
		sh.maxY = math.Max(sh.maxY, m.BBox.MaxY)
	}
	if len(sh.members) == 0 {
		return nil, fmt.Errorf("core: multi index has no member left to serve")
	}
	return sh, nil
}

// Without returns the index with the named members removed, exactly as a
// tolerant load that quarantined their bodies would serve it: ordinals, the
// global id space, portal links and coarse routing are kept, and ids owned
// by a removed member fail naming it. The receiver is unchanged; lazy
// members keep sharing its resident set.
func (sh *ShardedIndex) Without(names ...string) (*ShardedIndex, error) {
	byOrd := make([]ShardMember, len(sh.ordName))
	for i, n := range sh.ordName {
		byOrd[i].Name = n
	}
	for k, m := range sh.members {
		byOrd[sh.ord[k]] = m
	}
	for _, n := range names {
		k, ok := sh.byName[n]
		if !ok {
			return nil, fmt.Errorf("core: no member named %q", n)
		}
		byOrd[sh.ord[k]].Index = nil
	}
	out, err := newSharded(byOrd, sh.hier)
	if err != nil {
		return nil, err
	}
	out.rs, out.rawMesh = sh.rs, sh.rawMesh
	return out, nil
}

// Members returns the member list in manifest order. The slice aliases
// index-owned memory and must be treated as read-only.
func (sh *ShardedIndex) Members() []ShardMember { return sh.members }

// NumMembers returns the member count.
func (sh *ShardedIndex) NumMembers() int { return len(sh.members) }

// MemberNames returns the member names in manifest order.
func (sh *ShardedIndex) MemberNames() []string {
	names := make([]string, len(sh.members))
	for i, m := range sh.members {
		names[i] = m.Name
	}
	return names
}

// Member returns the named member.
func (sh *ShardedIndex) Member(name string) (ShardMember, bool) {
	i, ok := sh.byName[name]
	if !ok {
		return ShardMember{}, false
	}
	return sh.members[i], true
}

// Locate returns the member owning the planar point — the
// coordinate-routing rule of the serving layer: the member whose bbox
// contains it under half-open [min,max) semantics (a member on the index's
// outer boundary keeps its outer max edge, so the tiling's closure is
// preserved), else the member whose bbox is planar-closest. Half-open
// containment makes a point on a shared tile boundary belong to exactly
// one tile — the routing decision is a function of the manifest's bboxes,
// not of manifest order, and therefore survives encode → load unchanged.
// Routing is total (a point a single un-sharded index would answer never
// strands between tiles — a tile dropped for holding no POIs, or a point
// just outside the terrain, falls to the nearest member); in the fallback,
// manifest order makes distance ties deterministic. contained reports
// whether a bbox actually held the point.
func (sh *ShardedIndex) Locate(x, y float64) (m ShardMember, contained bool) {
	best, bestD2 := 0, math.Inf(1)
	for i, mm := range sh.members {
		if sh.contains(mm.BBox, x, y) {
			return mm, true
		}
		if d2 := mm.BBox.dist2(x, y); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return sh.members[best], false
}

// contains is the half-open membership test Locate routes by: [min, max)
// per axis, with the max edge re-admitted for members sitting on the
// index's outer boundary (there is no neighboring tile to own it).
func (sh *ShardedIndex) contains(b BBox2D, x, y float64) bool {
	if x < b.MinX || y < b.MinY || x > b.MaxX || y > b.MaxY {
		return false
	}
	if x == b.MaxX && b.MaxX < sh.maxX {
		return false
	}
	if y == b.MaxY && b.MaxY < sh.maxY {
		return false
	}
	return true
}

// Query answers in the global id space: same-member pairs delegate to the
// owning member, and cross-member pairs route through boundary-portal
// stitching or the coarse level (see hierarchy.go). A cross-member pair the
// container has no route for fails with CrossMemberError.
func (sh *ShardedIndex) Query(s, t int32) (float64, error) {
	ka, la, err := sh.resolveGlobal(s)
	if err != nil {
		return 0, err
	}
	kb, lb, err := sh.resolveGlobal(t)
	if err != nil {
		return 0, err
	}
	if ka == kb {
		return sh.members[ka].Index.Query(la, lb)
	}
	return sh.crossQuery(s, t, ka, la, kb, lb)
}

// QueryBatch answers pairs through Query. Part of the DistanceIndex
// interface; errors carry the offending pair index.
func (sh *ShardedIndex) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return BatchViaQuery(sh.Query, pairs, dst)
}

// MemoryBytes sums the members plus the manifest bookkeeping.
func (sh *ShardedIndex) MemoryBytes() int64 {
	var b int64
	for _, m := range sh.members {
		b += m.Index.MemoryBytes() + int64(len(m.Name)) + 48
	}
	return b
}

// MappedBytes sums the members' in-place container image bytes (flat
// members; zero for decoded kinds). Part of the MappedIndex interface.
func (sh *ShardedIndex) MappedBytes() int64 {
	var b int64
	for _, m := range sh.members {
		b += MappedBytesOf(m.Index)
	}
	return b
}

// Stats aggregates the members: pair/memory sums, the maximum height and
// epsilon (the conservative error bound across shards), and the member
// count. Points is the global id space — a function of the manifest, stable
// across lazy eviction and degraded loads, and excluding synthetic portal
// POIs and coarse sites — and the resident-set counters come from
// TileStats.
func (sh *ShardedIndex) Stats() IndexStats {
	st := IndexStats{Kind: KindMulti, Members: len(sh.members), Points: int(sh.hier.total)}
	for _, m := range sh.members {
		ms := m.Index.Stats()
		st.Pairs += ms.Pairs
		st.MemoryBytes += ms.MemoryBytes
		st.MappedBytes += ms.MappedBytes
		st.Epsilon = math.Max(st.Epsilon, ms.Epsilon)
		if ms.Height > st.Height {
			st.Height = ms.Height
		}
	}
	ts, _ := sh.TileStats()
	st.TilesResident = ts.Resident
	st.TileBudgetBytes = ts.BudgetBytes
	st.TileFaults = ts.Faults
	st.TileEvictions = ts.Evictions
	st.PortalQueries = ts.PortalQueries
	st.CoarseQueries = ts.CoarseQueries
	return st
}

// --- serialization ----------------------------------------------------------

// Manifest layout: count int64, then per member kind uint16, nameLen uint16,
// name bytes, bbox 4 × float64. Member i's tagged container body follows as
// section secMemberBase+i, in manifest order.

// manifestSection streams the manifest of n members whose identities ident
// reports by ordinal — the one encoder behind a resident index's EncodeTo
// and the streaming WriteSharded, which has no member built yet.
func manifestSection(n int, ident func(i int) (name string, kind Kind, bbox BBox2D)) section {
	length := uint64(8)
	for i := 0; i < n; i++ {
		name, _, _ := ident(i)
		length += 2 + 2 + uint64(len(name)) + 32
	}
	return section{id: secManifest, length: length, write: func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, int64(n)); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			name, kind, bbox := ident(i)
			if err := binary.Write(w, binary.LittleEndian, []uint16{uint16(kind), uint16(len(name))}); err != nil {
				return err
			}
			if _, err := io.WriteString(w, name); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian,
				[4]float64{bbox.MinX, bbox.MinY, bbox.MaxX, bbox.MaxY}); err != nil {
				return err
			}
		}
		return nil
	}}
}

// memberIdentity returns member i's manifest identity: a lazy member
// reports the kind of the payload it re-emits verbatim.
func (sh *ShardedIndex) memberIdentity(i int) (string, Kind, BBox2D) {
	m := sh.members[i]
	if lm, ok := m.Index.(*lazyMember); ok {
		return m.Name, lm.kind, m.BBox
	}
	return m.Name, m.Index.Stats().Kind, m.BBox
}

// sharedMesh returns the terrain mesh to emit as the multi container's one
// shared mesh section: the mesh adopted by the first SE member whose image
// embeds none (a tiled build's members, or members of a previous multi
// load) — those members rely on the shared section for their paths.
// Members that embed their own mesh slab keep it and need no section.
func (sh *ShardedIndex) sharedMesh() *terrain.Mesh {
	for _, m := range sh.members {
		if o, ok := m.Index.(*Oracle); ok && o.meshC == nil && o.adopted != nil {
			return o.adopted
		}
	}
	return nil
}

// EncodeTo writes the multi index as a tagged container (kind "multi"):
// the manifest, the hierarchy section, the portal section (when the
// container has portals), one shared terrain mesh (when the SE members tile
// a common terrain and so embed none — storing it per member would keep K
// identical copies), then every member's own container bytes. Members are
// buffered one at a time (their containers are deterministic, so decode →
// re-encode stays byte-identical member by member); lazy members re-emit
// their retained section bytes verbatim, so a budgeted load re-encodes
// byte-identically without faulting anything in.
//
// A degraded index (absent members) refuses to re-encode: the hierarchy's
// ordinals, global id bases and portal links all reference the full
// manifest, and a container rewritten without the missing members would
// silently renumber the id space.
func (sh *ShardedIndex) EncodeTo(w io.Writer) error {
	if len(sh.members) != len(sh.ordName) {
		return fmt.Errorf("core: refusing to re-encode a degraded multi (%d of %d members loaded; global ids would renumber)",
			len(sh.members), len(sh.ordName))
	}
	secs := []section{
		manifestSection(len(sh.members), sh.memberIdentity),
		hierarchySection(sh.hier.levels, sh.hier.parents, sh.hier.npois),
	}
	if len(sh.hier.portals) > 0 {
		secs = append(secs, portalsSection(sh.hier.portals))
	}
	if sh.rs != nil {
		if sh.rawMesh != nil {
			secs = append(secs, bytesSection(secMesh, sh.rawMesh))
		}
	} else if shared := sh.sharedMesh(); shared != nil {
		secs = append(secs, meshSection(secMesh, shared))
	}
	for i, m := range sh.members {
		if lm, ok := m.Index.(*lazyMember); ok {
			secs = append(secs, bytesSection(secMemberBase+uint32(i), lm.payload))
			continue
		}
		var buf bytes.Buffer
		if err := m.Index.EncodeTo(&buf); err != nil {
			return fmt.Errorf("core: encoding member %q: %w", m.Name, err)
		}
		secs = append(secs, bytesSection(secMemberBase+uint32(i), buf.Bytes()))
	}
	return writeContainer(w, KindMulti, secs)
}

// loadMember decodes one member body from its in-place section bytes,
// checking it against its own CRC footer first. Flat members are sliced
// zero-copy with keep threaded through; a strict byte-image load skips their
// checksum (verify false), whose O(n) pass would re-linearize the O(1) cold
// start — structural validation stands in for it (see LoadBytes). Every
// other kind is always verified, exactly as a stream Load of the body
// would.
func loadMember(payload []byte, keep any, verify bool) (DistanceIndex, error) {
	kind, secs, err := sliceContainer(payload)
	if err != nil {
		return nil, err
	}
	if kind != KindFlat || verify {
		if err := verifyImageCRC(payload); err != nil {
			return nil, err
		}
	}
	if kind == KindFlat {
		o, err := decodeFlatSecs(secs, keep)
		if err != nil {
			return nil, fmt.Errorf("core: decoding %s container: %w", kind, err)
		}
		return o, nil
	}
	return decodeKind(kind, secs)
}

// servedKind is the kind an index whose container says k serves as: a
// legacy se body loads as the flat image, every other kind as itself.
// Manifest kind checks compare a member body against it.
func servedKind(k Kind) Kind {
	if k == KindSE {
		return KindFlat
	}
	return k
}

// adoptShared attaches a multi container's shared mesh to an SE member
// whose image embeds none, so its paths run on the one terrain copy. The
// member's POIs are validated against it lazily, on the first path query.
func adoptShared(idx DistanceIndex, shared *terrain.Mesh) {
	if o, ok := idx.(*Oracle); ok && o.meshC == nil && shared != nil {
		o.adopted = shared
	}
}

// decodeManifest parses the manifest section into every member's identity
// (its Index left nil) and manifest kind, in ordinal order.
func decodeManifest(payload []byte) ([]ShardMember, []Kind, error) {
	r := bytes.NewReader(payload)
	var count int64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, nil, fmt.Errorf("multi manifest header: %w", err)
	}
	if count < 1 || count > maxShardMembers {
		return nil, nil, fmt.Errorf("multi manifest declares %d members (want 1..%d)", count, maxShardMembers)
	}
	byOrd := make([]ShardMember, count)
	kinds := make([]Kind, count)
	for i := range byOrd {
		var kindTag, nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &kindTag); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %w", i, err)
		}
		if nameLen == 0 || nameLen > maxShardNameLen {
			return nil, nil, fmt.Errorf("multi manifest entry %d: name length %d (want 1..%d)", i, nameLen, maxShardNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %w", i, err)
		}
		if err := validShardName(string(name)); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d: %v", i, err)
		}
		var bb [4]float64
		if err := binary.Read(r, binary.LittleEndian, &bb); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d (%q): %w", i, name, err)
		}
		box := BBox2D{MinX: bb[0], MinY: bb[1], MaxX: bb[2], MaxY: bb[3]}
		if err := box.validate(); err != nil {
			return nil, nil, fmt.Errorf("multi manifest entry %d (%q): %v", i, name, err)
		}
		byOrd[i] = ShardMember{Name: string(name), BBox: box}
		kinds[i] = Kind(kindTag)
	}
	if err := expectDrained(r, "multi manifest"); err != nil {
		return nil, nil, err
	}
	return byOrd, kinds, nil
}

// checkMember validates a decoded member body against its manifest kind,
// when expectPts >= 0 against the id count the hierarchy expects, and when
// poiSites >= 0 (a coarse member) against the POI-site count the hierarchy
// declares — the checks an eager load runs at load time and a lazy one at
// fault time.
func checkMember(idx DistanceIndex, kind Kind, expectPts, poiSites int64) error {
	if _, nested := idx.(*ShardedIndex); nested {
		return fmt.Errorf("member is itself a multi index (nesting unsupported)")
	}
	if got := idx.Stats().Kind; got != servedKind(kind) {
		return fmt.Errorf("manifest says kind %s, body holds %s", kind, got)
	}
	if got := idCount(idx); expectPts >= 0 && got != expectPts {
		return fmt.Errorf("hierarchy expects %d points (POIs + portals), body holds %d", expectPts, got)
	}
	if poiSites >= 0 {
		got := int64(0)
		if so, ok := idx.(*SiteOracle); ok {
			got = int64(so.npois)
		}
		if got != poiSites {
			return fmt.Errorf("hierarchy declares %d POI sites for this coarse member, body indexes %d", poiSites, got)
		}
	}
	return nil
}

// decodeMulti rebuilds a *ShardedIndex from a multi-kind section map. The
// manifest is the source of truth: a member count that disagrees with the
// member sections actually present (either direction), a manifest kind that
// disagrees with a member's body, duplicate or malformed names, and invalid
// bboxes are all corruption, not slack.
//
// cfg.tolerant selects the LoadDegraded behavior: member-level failures — a
// missing or undecodable member body, a manifest/body kind mismatch —
// quarantine the member instead of failing the load, and the healthy rest
// are assembled. Manifest, hierarchy and shared-mesh damage stays fatal in
// both modes: without a trustworthy manifest there is no member identity to
// quarantine under. Tolerant loads fail only when every member is damaged.
// cfg.keep is retained by zero-copy (flat) members whose slabs alias the
// section bytes (see LoadBytes).
//
// A container without a hierarchy section (written before every multi
// carried one) is a single-level hierarchy whose id counts come from the
// member bodies. Those counts define the global id space, so in that shape
// every member body must decode, even under cfg.tolerant.
//
// cfg.lazy defers each member's body decode — and therefore its kind and
// point-count validation — to the first query that touches it (a deliberate
// relaxation, like LoadDegraded's: cold start must not pay for tiles the
// traffic never visits). A body that fails at fault time serves
// ErrMemberFault thereafter; only a missing member section is still a
// load-time failure. The hierarchy-less shape is the exception: its members
// are decoded once at load to count them (flat members zero-copy).
func decodeMulti(secs map[uint32][]byte, cfg multiLoadConfig) (DistanceIndex, []Quarantined, error) {
	if err := requireSections(secs, secManifest); err != nil {
		return nil, nil, err
	}
	byOrd, kinds, err := decodeManifest(secs[secManifest])
	if err != nil {
		return nil, nil, err
	}
	count := len(byOrd)
	for id := range secs {
		if id >= secMemberBase && id < secMemberBase+maxShardMembers && int(id-secMemberBase) >= count {
			return nil, nil, fmt.Errorf("container holds member section %d beyond the %d the manifest declares", id-secMemberBase, count)
		}
	}
	bboxes := make([]BBox2D, count)
	for i, m := range byOrd {
		bboxes[i] = m.BBox
	}
	// The hierarchy and portal sections carry the global id space, the LOD
	// levels and the portal links (see hierarchy.go). Hierarchy damage is
	// fatal like manifest damage in both modes: global ids and cross-tile
	// routing hang off it.
	var hier *hierMeta
	hierSec, hasHier := secs[secHierarchy]
	if hasHier {
		levels, parents, npois, err := decodeHierarchySec(hierSec, count)
		if err != nil {
			return nil, nil, err
		}
		var links []PortalLink
		if pp, ok := secs[secPortals]; ok {
			links, err = decodePortalsSec(pp)
			if err != nil {
				return nil, nil, err
			}
		}
		hier, err = buildHierMeta(levels, parents, npois, links, bboxes)
		if err != nil {
			return nil, nil, fmt.Errorf("hierarchy section: %w", err)
		}
	} else if _, ok := secs[secPortals]; ok {
		return nil, nil, fmt.Errorf("container holds a portal section but no hierarchy section")
	}
	tolerant := cfg.tolerant && hasHier
	// An optional shared mesh section carries the terrain the SE members
	// tile; it is attached to every mesh-less SE member below so QueryPath
	// works without storing one mesh copy per tile. Lazy loads keep the raw
	// section and decode it on the first member fault instead.
	var shared *terrain.Mesh
	if payload, ok := secs[secMesh]; ok && !cfg.lazy {
		m, err := decodeMesh(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("shared mesh section: %w", err)
		}
		shared = m
	}
	var rs *residentSet
	if cfg.lazy {
		rs = &residentSet{budget: cfg.budget, rawMesh: secs[secMesh]}
	}
	// open turns member i's body into its served index: decoded and checked
	// now, or a lazy member decoded on first touch. The hierarchy-less shape
	// decodes lazy members once here too, to count them.
	open := func(i int, payload []byte) (DistanceIndex, error) {
		expectPts, poiSites := int64(-1), int64(-1)
		if hasHier {
			expectPts = hier.expectPts[i]
			if hier.levels[i] > 0 {
				poiSites = hier.npois[i]
			}
		}
		if !cfg.lazy || !hasHier {
			idx, err := loadMember(payload, cfg.keep, cfg.verify)
			if err != nil {
				return nil, err
			}
			if err := checkMember(idx, kinds[i], expectPts, poiSites); err != nil {
				return nil, err
			}
			if !cfg.lazy {
				adoptShared(idx, shared)
				return idx, nil
			}
			expectPts = idCount(idx)
		}
		lm := &lazyMember{
			rs: rs, ordinal: int32(i), name: byOrd[i].Name, kind: kinds[i],
			payload: payload, keep: cfg.keep, npois: expectPts, expectPts: expectPts,
			poiSites: poiSites,
		}
		if hasHier {
			lm.npois = hier.npois[i]
			if poiSites >= 0 {
				lm.npois = 0 // a coarse member's POI sites are no ids of its own
			}
		}
		rs.members = append(rs.members, lm)
		return lm, nil
	}
	var quarantined []Quarantined
	counts := make([]int64, count) // member id counts, for the hierarchy-less shape
	for i := range byOrd {
		e := &byOrd[i]
		payload, ok := secs[secMemberBase+uint32(i)]
		if !ok {
			err = fmt.Errorf("manifest declares %d members, member %d (%q) has no section", count, i, e.Name)
		} else if e.Index, err = open(i, payload); err == nil {
			counts[i] = idCount(e.Index)
			continue
		} else {
			err = fmt.Errorf("member %q: %w", e.Name, err)
		}
		// A member-level failure quarantines the member in tolerant mode;
		// otherwise it aborts the load.
		if !tolerant {
			return nil, nil, err
		}
		quarantined = append(quarantined, Quarantined{Name: e.Name, Kind: kinds[i], BBox: e.BBox, Err: err})
	}
	if len(quarantined) == count {
		return nil, nil, fmt.Errorf("every member of the multi container failed to decode (first: %v)", quarantined[0].Err)
	}
	if !hasHier {
		if hier, err = singleLevel(counts, bboxes); err != nil {
			return nil, nil, fmt.Errorf("member id counts: %w", err)
		}
	}
	sh, err := newSharded(byOrd, hier)
	if err != nil {
		return nil, nil, err
	}
	if rs != nil {
		sh.rs, sh.rawMesh = rs, secs[secMesh]
	}
	return sh, quarantined, nil
}

// --- tiled construction -----------------------------------------------------

// shardGrid factors K into kx columns × ky rows, as square as K's divisors
// allow (prime K degenerates to a 1-row strip).
func shardGrid(k int) (kx, ky int) {
	ky = int(math.Sqrt(float64(k)))
	for ; ky > 1; ky-- {
		if k%ky == 0 {
			break
		}
	}
	if ky < 1 {
		ky = 1
	}
	return k / ky, ky
}

// tileIndex maps a coordinate to its tile column/row, clamping boundary
// points (x == max lands in the last tile).
func tileIndex(v, min, span float64, k int) int {
	if span <= 0 || k <= 1 {
		return 0
	}
	i := int((v - min) / span * float64(k))
	if i < 0 {
		i = 0
	}
	if i >= k {
		i = k - 1
	}
	return i
}

// NearestAcross returns the globally nearest indexed endpoint over every
// member that answers nearest queries — the unnamed-/v1/nearest semantics
// of the serving layer: the answer must match what one un-sharded index
// over the same points would return, so every member is scanned (member
// bboxes are routing hints, not guaranteed point bounds, and a
// boundary-adjacent query's true nearest can sit in the neighboring tile).
// Two members at exactly equal planar distance tie toward the lower member
// name — a property of the members themselves, not of manifest order, so
// the winner is identical however the container was assembled or reloaded.
// Members that cannot answer (no NearestFinder, or no point table) are
// skipped; an error is returned only when no member produced an answer.
// Coarse members are skipped (their sites are routing infrastructure, not
// indexed endpoints) and synthetic portal POIs are filtered out of fine
// members' answers.
func (sh *ShardedIndex) NearestAcross(x, y float64) (ShardMember, int32, terrain.SurfacePoint, float64, error) {
	var (
		bm    ShardMember
		bid   int32 = -1
		bat   terrain.SurfacePoint
		bestD = math.Inf(1)
	)
	for k, m := range sh.members {
		if sh.hier.levels[sh.ord[k]] != 0 {
			continue
		}
		id, at, d, err := sh.memberNearest(k, x, y)
		if err != nil {
			continue
		}
		if d < bestD || (d == bestD && bid >= 0 && m.Name < bm.Name) {
			bm, bid, bat, bestD = m, id, at, d
		}
	}
	if bid < 0 {
		return ShardMember{}, -1, terrain.SurfacePoint{}, 0,
			fmt.Errorf("core: no member of the multi index answered a nearest query")
	}
	return bm, bid, bat, bestD, nil
}
