package world

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// PathologicalASN is the AS number of the built-in analogue of AS12322: a
// single enormous trivially-enumerable ICMP-responsive pattern (fixed ::1
// IID under millions of subnets) that saturates ICMP results unless
// filtered, as §4.1 of the paper describes. Metrics filter it from ICMP
// evaluation.
const PathologicalASN = 12322

// Config controls world synthesis. The zero value is completed with
// defaults by New.
type Config struct {
	// Seed drives every random decision; equal seeds give equal worlds.
	Seed uint64
	// NumASes is the number of autonomous systems (default 500).
	NumASes int
	// LossRate is the probability a probe or reply is dropped in transit
	// (default 0.01).
	LossRate float64
	// sizeScale multiplies per-region host-count targets (default 1).
	// Combined with lazy materialization it grows the expected host
	// population arbitrarily — 100x a default world passes 10^8 hosts —
	// without changing the build cost.
	sizeScale float64
}

func (c *Config) fillDefaults() {
	if c.NumASes == 0 {
		c.NumASes = 500
	}
	if c.LossRate == 0 {
		c.LossRate = 0.01
	}
	if c.sizeScale == 0 {
		c.sizeScale = 1
	}
}

// orgWeights approximates the organization mix visible in Table 6.
var orgWeights = []struct {
	typ asdb.OrgType
	w   float64
}{
	{asdb.OrgISP, 0.38},
	{asdb.OrgMobile, 0.08},
	{asdb.OrgCloudCDN, 0.10},
	{asdb.OrgHosting, 0.14},
	{asdb.OrgEducation, 0.10},
	{asdb.OrgGovernment, 0.04},
	{asdb.OrgEnterprise, 0.10},
	{asdb.OrgSatellite, 0.02},
	{asdb.OrgOther, 0.02},
}

// iidStyle is the per-AS convention for interface identifiers. Regions of
// the same AS share a style, which is the hierarchical locality tree-based
// TGAs exploit: learn the style from one region's seeds, discover sibling
// regions.
type iidStyle int

const (
	styleLow iidStyle = iota
	styleWords
	styleService
	styleEUI
	styleCount
)

var styleWordsChoices = [][]byte{
	{0xc, 0xa, 0xf, 0xe}, // cafe
	{0xb, 0xe, 0xe, 0xf}, // beef
	{0xf, 0x0, 0x0, 0xd}, // f00d
	{0xd, 0xe, 0xa, 0xd}, // dead
	{0xf, 0xa, 0xc, 0xe}, // face
	{0xb, 0x0, 0x0, 0xc}, // b00c
}

// New synthesizes a world from cfg. The call is cheap at any size: it
// allocates one group slot per AS and nothing else. Each AS's regions
// materialize on first contact (a routed packet, a sampler, Regions())
// from the AS's own deterministic RNG, so equal seeds still give equal
// worlds regardless of which parts were touched first or concurrently.
func New(cfg Config) *World {
	cfg.fillDefaults()
	w := &World{
		seed:     cfg.Seed,
		cfg:      cfg,
		lossRate: cfg.LossRate,
		groups:   make([]atomic.Pointer[regionGroup], cfg.NumASes+1),
	}
	for tag := range w.tagged {
		w.tagged[tag] = ipaddr.Mix64(w.seed, uint64(tag))
	}
	return w
}

// asHeader is the cheap, region-free identity of one AS: what the registry
// and the routing spine need without materializing any regions.
type asHeader struct {
	asn      int
	name     string
	org      asdb.OrgType
	prefixes []ipaddr.Prefix
}

// asRNG returns the deterministic per-AS generator RNG for slot i.
func (w *World) asRNG(i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(w.hash(tagASSeed, uint64(i)))))
}

// headerOf derives slot i's header, reusing a materialized group's copy
// when available. The header draws are the first draws of the AS's RNG, so
// deriving it alone costs two draws and no region work.
func (w *World) headerOf(i int) asHeader {
	if g := w.groups[i].Load(); g != nil {
		return g.header
	}
	if i == w.cfg.NumASes {
		return pathologicalHeader(w.cfg)
	}
	rng := w.asRNG(i)
	org := pickOrg(rng)
	nPrefixes := 1 + rng.Intn(3)
	return makeHeader(i, org, nPrefixes)
}

// makeHeader builds AS index i's header from its two header draws.
func makeHeader(i int, org asdb.OrgType, nPrefixes int) asHeader {
	asn := 1000 + i*7
	base := asBase(i)
	prefixes := make([]ipaddr.Prefix, 0, nPrefixes)
	for j := 0; j < nPrefixes; j++ {
		a := ipaddr.AddrFrom64s(base.Hi()|uint64(j)<<32, 0)
		prefixes = append(prefixes, ipaddr.PrefixFrom(a, 32))
	}
	return asHeader{
		asn:      asn,
		name:     fmt.Sprintf("%s-%d", orgShortName(org), asn),
		org:      org,
		prefixes: prefixes,
	}
}

func pathologicalHeader(cfg Config) asHeader {
	base := asBase(cfg.NumASes + 8)
	return asHeader{
		asn:      PathologicalASN,
		name:     "isp-pathological-12322",
		org:      asdb.OrgISP,
		prefixes: []ipaddr.Prefix{ipaddr.PrefixFrom(base, 32)},
	}
}

// asSkipBits is the depth the per-AS LPM tables start matching at: every
// region prefix of an AS lives under its /28 block.
const asSkipBits = 28

// buildGroup materializes slot i: regions, their compiled templates and
// death tables, and the flat LPM routing table over them.
func (w *World) buildGroup(i int) *regionGroup {
	b := &builder{w: w, cfg: w.cfg, rng: w.asRNG(i)}
	var hdr asHeader
	if i == w.cfg.NumASes {
		hdr = pathologicalHeader(w.cfg)
		b.buildPathologicalAS()
	} else {
		hdr = b.buildAS(i)
	}
	prefixes := make([]ipaddr.Prefix, len(b.regions))
	indices := make([]uint32, len(b.regions))
	for idx, r := range b.regions {
		r.match = r.Template.compile()
		r.buildDeathTable()
		prefixes[idx], indices[idx] = r.Prefix, uint32(idx)
	}
	lpm := ipaddr.BuildLPM(prefixes, indices, asSkipBits)
	return &regionGroup{header: hdr, regions: b.regions, lpm: lpm}
}

// builder materializes one AS's regions from its per-AS RNG.
type builder struct {
	w       *World
	cfg     Config
	rng     *rand.Rand
	regions []*Region
}

func pickOrg(rng *rand.Rand) asdb.OrgType {
	u := rng.Float64()
	for _, ow := range orgWeights {
		if u < ow.w {
			return ow.typ
		}
		u -= ow.w
	}
	return asdb.OrgOther
}

// asBase returns the base /28 block for AS index i within 2000::/8.
func asBase(i int) ipaddr.Addr {
	hi := (uint64(0x20000000) + uint64(i+1)*16) << 32
	return ipaddr.AddrFrom64s(hi, 0)
}

func (b *builder) buildAS(i int) asHeader {
	org := pickOrg(b.rng)
	// Allocate 1-3 /32s inside the AS's /28 block.
	nPrefixes := 1 + b.rng.Intn(3)
	hdr := makeHeader(i, org, nPrefixes)

	style := iidStyle(b.rng.Intn(int(styleCount)))
	word := styleWordsChoices[b.rng.Intn(len(styleWordsChoices))]
	service := [4]byte{byte(b.rng.Intn(16)), byte(b.rng.Intn(16)), byte(b.rng.Intn(16)), byte(b.rng.Intn(16))}

	ctx := &asContext{asn: hdr.asn, org: org, style: style, word: word, service: service, prefixes: hdr.prefixes}

	// Every AS has router infrastructure.
	b.addRouterRegion(ctx)
	// Most ASes also have dark space: blocks whose addresses show up in
	// traceroutes and DNS (they exist) but answer almost nothing — heavily
	// firewalled infrastructure or since-renumbered allocations. Seeds
	// from here are the "unresponsive addresses" RQ1.b shows misleading
	// generators: they advertise patterns with nothing behind them.
	if b.rng.Float64() < 0.7 {
		b.addDarkRegion(ctx)
	}
	if b.rng.Float64() < 0.3 {
		b.addDarkRegion(ctx)
	}
	switch org {
	case asdb.OrgISP, asdb.OrgMobile, asdb.OrgSatellite:
		n := 1 + b.rng.Intn(3)
		for k := 0; k < n; k++ {
			b.addCustomerRegion(ctx, k)
		}
		if b.rng.Float64() < 0.15 {
			b.addDNSRegion(ctx)
		}
	case asdb.OrgCloudCDN:
		n := 2 + b.rng.Intn(4)
		for k := 0; k < n; k++ {
			b.addCDNRegion(ctx, k)
		}
		na := b.rng.Intn(3)
		for k := 0; k < na; k++ {
			b.addAliasedRegion(ctx, k, false)
		}
		if b.rng.Float64() < 0.35 {
			b.addDNSRegion(ctx)
		}
	case asdb.OrgHosting:
		n := 2 + b.rng.Intn(3)
		for k := 0; k < n; k++ {
			b.addWebRegion(ctx, k, false)
		}
		if b.rng.Float64() < 0.35 {
			b.addAliasedRegion(ctx, 0, b.rng.Float64() < 0.25)
		}
		if b.rng.Float64() < 0.25 {
			b.addDNSRegion(ctx)
		}
	default: // Education, Government, Enterprise, Other
		n := 1 + b.rng.Intn(2)
		for k := 0; k < n; k++ {
			b.addWebRegion(ctx, k, true)
		}
		b.addEndhostRegion(ctx)
		if org == asdb.OrgEducation && b.rng.Float64() < 0.4 {
			b.addDNSRegion(ctx)
		}
	}
	return hdr
}

type asContext struct {
	asn      int
	org      asdb.OrgType
	style    iidStyle
	word     []byte
	service  [4]byte
	prefixes []ipaddr.Prefix
	// nextSub allocates distinct /40 region slots under the AS prefixes.
	nextSub int
}

// regionPrefix carves the next /40 out of the AS's address space.
func (b *builder) regionPrefix(ctx *asContext) ipaddr.Prefix {
	p := ctx.prefixes[ctx.nextSub%len(ctx.prefixes)]
	slot := uint64(ctx.nextSub / len(ctx.prefixes) % 256)
	ctx.nextSub++
	a := ipaddr.AddrFrom64s(p.Addr().Hi()|slot<<24, 0)
	return ipaddr.PrefixFrom(a, 40)
}

func orgShortName(o asdb.OrgType) string {
	switch o {
	case asdb.OrgISP:
		return "isp"
	case asdb.OrgMobile:
		return "mobile"
	case asdb.OrgCloudCDN:
		return "cdn"
	case asdb.OrgHosting:
		return "hosting"
	case asdb.OrgEducation:
		return "edu"
	case asdb.OrgGovernment:
		return "gov"
	case asdb.OrgEnterprise:
		return "corp"
	case asdb.OrgSatellite:
		return "sat"
	}
	return "other"
}

// logUniform samples log-uniformly in [lo, hi].
func (b *builder) logUniform(lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + b.rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// baseTemplate pins every post-prefix position to zero so regions opt in to
// variability position by position.
func baseTemplate(p ipaddr.Prefix) Template {
	t := templateFromPrefix(p)
	for i := p.Bits() / 4; i < ipaddr.NybbleCount; i++ {
		if t.varMask[i] == 0xffff {
			t.pin(i, 0)
		}
	}
	return t
}

// shape opens variable positions (in the given preference order) with
// contiguous value ranges until the template holds at least `combos`
// combinations.
func (b *builder) shape(t *Template, positions []int, combos float64) {
	remaining := combos
	for _, pos := range positions {
		if remaining <= 1.5 {
			return
		}
		size := 16
		if remaining < 16 {
			size = int(math.Ceil(remaining))
		} else if b.rng.Float64() < 0.5 {
			size = 4 + b.rng.Intn(12) // partial masks even when more is needed
		}
		if size < 2 {
			size = 2
		}
		start := 0
		if size < 16 {
			start = b.rng.Intn(16 - size + 1)
		}
		var m uint16
		for v := start; v < start+size; v++ {
			m |= 1 << v
		}
		t.allowMask(pos, m)
		remaining /= float64(size)
	}
}

// iidPositions returns, per style, the preferred variable IID positions and
// applies the style's fixed structure to t.
func (b *builder) iidPositions(ctx *asContext, t *Template) []int {
	switch ctx.style {
	case styleLow:
		return []int{31, 30, 29, 28}
	case styleWords:
		for i, v := range ctx.word {
			t.pin(20+i, v)
		}
		return []int{31, 30, 29, 28, 27}
	case styleService:
		for i, v := range ctx.service {
			t.pin(24+i, v)
		}
		return []int{31, 30, 29, 28}
	case styleEUI:
		// OUI-derived IIDs: dd:dd:dd:ff:fe:xx:xx:xx with a fixed vendor OUI.
		t.pin(22, 0xf)
		t.pin(23, 0xf)
		t.pin(24, 0xf)
		t.pin(25, 0xe)
		for i := 16; i < 22; i++ {
			t.pin(i, byte(b.rng.Intn(16)))
		}
		return []int{31, 30, 29, 28, 27, 26}
	}
	return []int{31, 30}
}

func (b *builder) addRouterRegion(ctx *asContext) {
	p := b.regionPrefix(ctx)
	t := baseTemplate(p)
	target := b.logUniform(100, 1500) * b.cfg.sizeScale
	density := 0.35 + b.rng.Float64()*0.4
	// Routers: low IIDs under a spread of infrastructure subnets.
	b.shape(&t, []int{31, 30, 12, 11, 13}, target/density)
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassRouter,
		Template: t,
		density:  density,
		resp: [proto.Count]float64{
			proto.ICMP:   0.8 + b.rng.Float64()*0.15,
			proto.TCP80:  0.02,
			proto.TCP443: 0.01,
			proto.UDP53:  0.05 + b.rng.Float64()*0.1,
		},
		churn:        0.08 + b.rng.Float64()*0.12,
		birth:        0.05,
		RespRate:     1,
		sendsRST:     0.3,
		SendsUnreach: 0.35,
	})
}

func (b *builder) addCustomerRegion(ctx *asContext, k int) {
	p := b.regionPrefix(ctx)
	t := baseTemplate(p)
	target := b.logUniform(1500, 40000) * b.cfg.sizeScale
	density := 0.25 + b.rng.Float64()*0.5
	// Customer CPE: one host per delegated subnet; the subnet nybbles vary,
	// the IID is the AS's convention (often just ::1).
	subnetPositions := []int{12, 13, 14, 15, 11}
	var iid []int
	if ctx.style == styleLow {
		t.pin(31, 1) // the classic ::1 CPE address
	} else {
		iid = b.iidPositions(ctx, &t)
		if len(iid) > 2 {
			iid = iid[:2]
		}
	}
	b.shape(&t, append(subnetPositions, iid...), target/density)
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassISPCustomer,
		Template: t,
		density:  density,
		resp: [proto.Count]float64{
			proto.ICMP:   0.65 + b.rng.Float64()*0.25,
			proto.TCP80:  0.02 + b.rng.Float64()*0.04,
			proto.TCP443: 0.02 + b.rng.Float64()*0.05,
			proto.UDP53:  0.01 + b.rng.Float64()*0.03,
		},
		churn:        0.15 + b.rng.Float64()*0.2,
		birth:        0.1,
		RespRate:     1,
		sendsRST:     0.1,
		SendsUnreach: 0.2,
	})
}

func (b *builder) addWebRegion(ctx *asContext, k int, small bool) {
	p := b.regionPrefix(ctx)
	t := baseTemplate(p)
	lo, hi := 1000.0, 20000.0
	if small {
		lo, hi = 200, 3000
	}
	target := b.logUniform(lo, hi) * b.cfg.sizeScale
	density := 0.3 + b.rng.Float64()*0.5
	iid := b.iidPositions(ctx, &t)
	b.shape(&t, append(iid, 13, 12), target/density)
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassWebServer,
		Template: t,
		density:  density,
		resp: [proto.Count]float64{
			proto.ICMP:   0.7 + b.rng.Float64()*0.25,
			proto.TCP80:  0.2 + b.rng.Float64()*0.25,
			proto.TCP443: 0.3 + b.rng.Float64()*0.3,
			proto.UDP53:  0.03,
		},
		churn:        0.05 + b.rng.Float64()*0.1,
		birth:        0.08,
		RespRate:     1,
		sendsRST:     0.6,
		SendsUnreach: 0.25,
	})
}

func (b *builder) addCDNRegion(ctx *asContext, k int) {
	p := b.regionPrefix(ctx)
	t := baseTemplate(p)
	target := b.logUniform(4000, 80000) * b.cfg.sizeScale
	density := 0.3 + b.rng.Float64()*0.55
	iid := b.iidPositions(ctx, &t)
	b.shape(&t, append(iid, 12, 13, 14), target/density)
	respRate := 1.0
	if b.rng.Float64() < 0.2 {
		respRate = 0.4 + b.rng.Float64()*0.3 // rate-limited PoP
	}
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassCDNNode,
		Template: t,
		density:  density,
		resp: [proto.Count]float64{
			proto.ICMP:   0.8 + b.rng.Float64()*0.15,
			proto.TCP80:  0.35 + b.rng.Float64()*0.3,
			proto.TCP443: 0.45 + b.rng.Float64()*0.3,
			proto.UDP53:  0.05 + b.rng.Float64()*0.1,
		},
		churn:        0.03 + b.rng.Float64()*0.05,
		birth:        0.05,
		RespRate:     respRate,
		sendsRST:     0.7,
		SendsUnreach: 0.15,
	})
}

func (b *builder) addDNSRegion(ctx *asContext) {
	p := b.regionPrefix(ctx)
	t := baseTemplate(p)
	target := b.logUniform(150, 2500) * b.cfg.sizeScale
	density := 0.4 + b.rng.Float64()*0.4
	// Resolver farms: ::53-style IIDs.
	t.pin(30, 5)
	t.pin(31, 3)
	b.shape(&t, []int{29, 28, 13, 12}, target/density)
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassDNSServer,
		Template: t,
		density:  density,
		resp: [proto.Count]float64{
			proto.ICMP:   0.7 + b.rng.Float64()*0.2,
			proto.TCP80:  0.08,
			proto.TCP443: 0.1,
			proto.UDP53:  0.85 + b.rng.Float64()*0.12,
		},
		churn:        0.05 + b.rng.Float64()*0.08,
		birth:        0.05,
		RespRate:     1,
		sendsRST:     0.4,
		SendsUnreach: 0.2,
	})
}

// addDarkRegion creates an existing-but-unresponsive block: its hosts are
// observed by collectors (traceroute hops, stale DNS records) yet answer
// essentially nothing at scan time.
func (b *builder) addDarkRegion(ctx *asContext) {
	p := b.regionPrefix(ctx)
	t := baseTemplate(p)
	target := b.logUniform(1000, 25000) * b.cfg.sizeScale
	density := 0.25 + b.rng.Float64()*0.5
	iid := b.iidPositions(ctx, &t)
	b.shape(&t, append([]int{12, 13, 14, 15}, iid...), target/density)
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassDark,
		Template: t,
		density:  density,
		resp: [proto.Count]float64{
			proto.ICMP:   0.02,
			proto.TCP80:  0.003,
			proto.TCP443: 0.003,
			proto.UDP53:  0.002,
		},
		churn:        0.3,
		birth:        0.02,
		RespRate:     1,
		sendsRST:     0.05,
		SendsUnreach: 0.1,
	})
}

func (b *builder) addEndhostRegion(ctx *asContext) {
	p := b.regionPrefix(ctx)
	t := templateFromPrefix(p) // fully random IIDs: privacy addresses
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassEndhost,
		Template: t,
		density:  1e-15, // effectively undiscoverable by generation
		resp: [proto.Count]float64{
			proto.ICMP: 0.5, proto.TCP80: 0.01, proto.TCP443: 0.02, proto.UDP53: 0.01,
		},
		churn:        0.5,
		birth:        0.5,
		RespRate:     1,
		sendsRST:     0.05,
		SendsUnreach: 0.1,
	})
}

// addAliasedRegion creates a fully-responsive slab bound to one device.
// rateLimited aliases answer only a fraction of probes, which can defeat
// the online dealiaser — the paper's EIP/Amazon-prefix effect.
func (b *builder) addAliasedRegion(ctx *asContext, k int, rateLimited bool) {
	parent := b.regionPrefix(ctx)
	bits := 64 + 16*b.rng.Intn(3) // /64, /80, or /96
	a := parent.Addr().AddLo(uint64(b.rng.Intn(1 << 16)))
	p := ipaddr.PrefixFrom(a, bits)
	respRate := 1.0
	if rateLimited {
		respRate = 0.12
	}
	udp := 0.0
	if b.rng.Float64() < 0.3 {
		udp = 1
	}
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      ctx.asn,
		Class:    ClassCDNNode,
		Template: templateFromPrefix(p),
		Aliased:  true,
		resp: [proto.Count]float64{
			proto.ICMP: 1, proto.TCP80: 1, proto.TCP443: 1, proto.UDP53: udp,
		},
		RespRate:     respRate,
		sendsRST:     1,
		SendsUnreach: 0,
	})
}

// buildPathologicalAS creates the AS12322 analogue: one enormous
// trivially-enumerable ICMP pattern with a fixed ::1 IID.
func (b *builder) buildPathologicalAS() {
	base := asBase(b.cfg.NumASes + 8)
	p := ipaddr.PrefixFrom(base, 36)
	t := baseTemplate(p)
	// Five fully variable subnet nybbles over a fixed ::1 IID — a million
	// subnets, hundreds of thousands of hosts discoverable from the pattern
	// alone.
	for _, pos := range []int{9, 10, 11, 12, 13} {
		t.allowMask(pos, 0xffff)
	}
	t.pin(31, 1)
	b.regions = append(b.regions, &Region{
		Prefix:   p,
		asn:      PathologicalASN,
		Class:    ClassISPCustomer,
		Template: t,
		density:  0.35,
		resp: [proto.Count]float64{
			proto.ICMP: 1, proto.TCP80: 0.01, proto.TCP443: 0.01, proto.UDP53: 0.01,
		},
		churn:        0.04,
		birth:        0.02,
		RespRate:     1,
		sendsRST:     0.1,
		SendsUnreach: 0.1,
	})
}
