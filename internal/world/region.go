package world

import (
	"fmt"
	"math"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// HostClass describes what kind of hosts populate a region. Seed collectors
// use it to model their source bias (domain sources see servers, traceroute
// sources see routers, and so on).
type HostClass uint8

const (
	ClassRouter HostClass = iota
	ClassWebServer
	ClassCDNNode
	ClassDNSServer
	ClassISPCustomer
	ClassEndhost
	// ClassDark marks existing-but-unresponsive space: firewalled
	// infrastructure and since-renumbered blocks that still appear in
	// traceroutes and stale DNS.
	ClassDark
	classCount
)

// String names the class.
func (c HostClass) String() string {
	switch c {
	case ClassRouter:
		return "Router"
	case ClassWebServer:
		return "WebServer"
	case ClassCDNNode:
		return "CDNNode"
	case ClassDNSServer:
		return "DNSServer"
	case ClassISPCustomer:
		return "ISPCustomer"
	case ClassEndhost:
		return "Endhost"
	case ClassDark:
		return "Dark"
	}
	return fmt.Sprintf("HostClass(%d)", uint8(c))
}

// Region is a contiguous slab of the address space with a single addressing
// pattern and service profile. Regions are the atoms of the simulated
// Internet: activity of any address is decided by the deepest region
// containing it.
type Region struct {
	// Prefix bounds the region; the template's leading nybbles equal it.
	Prefix ipaddr.Prefix
	// asn is the autonomous system originating the region.
	asn int
	// Class is the dominant host type.
	Class HostClass
	// Template is the addressing pattern within the prefix.
	Template Template
	// density is the fraction of in-template addresses that exist as hosts.
	density float64
	// resp is, per protocol, the probability an existing host listens there.
	resp [proto.Count]float64
	// Aliased marks the whole prefix as answering for every address (one
	// device bound to the entire prefix). Aliased regions ignore Template
	// and Density: all addresses respond on protocols with Resp > 0.5.
	Aliased bool
	// churn is the fraction of hosts active at the seed-collection epoch
	// that are gone by the scan epoch.
	churn float64
	// birth is the fraction of hosts absent at collection that appear by
	// scan time (address churn's other half).
	birth float64
	// RespRate models ICMP/SYN rate limiting: the fraction of probes a
	// live host actually answers (1 = never drops). Retries can recover
	// misses; heavy limiting defeats online dealiasing, as the paper
	// observes for one Amazon prefix.
	RespRate float64
	// sendsRST is the probability an existing host answers a closed TCP
	// port with RST rather than dropping the SYN.
	sendsRST float64
	// SendsUnreach is the probability probes to nonexistent addresses in
	// this region draw an ICMP Destination Unreachable from the region's
	// router.
	SendsUnreach float64

	// match is Template compiled for existsAt, built once with the death
	// table when the region materializes.
	match templateMatch

	// death memoizes the cumulative death probability by host age:
	// death[k] is the chance a host has died within k epoch transitions
	// under geometric survival at rate Churn. Built once per region so the
	// per-packet existence check never loops over epochs.
	death []float64
}

// deathTableEpochs bounds the memoized death table; ages beyond it fall
// back to the closed form (clamped monotone against the table tail).
const deathTableEpochs = 64

// buildDeathTable precomputes the cumulative churn factors. Called once
// when a region materializes; deathBy stays correct (just slower and
// float-derived for k > 1) when it never runs.
func (r *Region) buildDeathTable() {
	if r.churn <= 0 || r.Aliased {
		return
	}
	d := make([]float64, deathTableEpochs+1)
	d[1] = r.churn // exactly Churn: epochs 0/1 must stay hash-identical
	surv := 1 - r.churn
	for k := 2; k <= deathTableEpochs; k++ {
		surv *= 1 - r.churn
		d[k] = 1 - surv
	}
	r.death = d
}

// deathBy returns the probability a host has died within k epoch
// transitions of its birth: 1-(1-Churn)^k, memoized.
func (r *Region) deathBy(k int) float64 {
	if k <= 0 || r.churn <= 0 {
		return 0
	}
	if k == 1 {
		return r.churn
	}
	if k < len(r.death) {
		return r.death[k]
	}
	v := 1 - math.Pow(1-r.churn, float64(k))
	// Clamp against the table tail so the closed form can never dip below
	// a memoized value by an ulp and resurrect a dead host.
	if n := len(r.death); n > 0 && v < r.death[n-1] {
		v = r.death[n-1]
	}
	return v
}

// ExpectedHosts estimates the number of existing hosts in the region (at
// the collection epoch).
func (r *Region) ExpectedHosts() float64 {
	if r.Aliased {
		return 1 // one device, however many addresses
	}
	return r.Template.size() * r.density
}

// routerAddr returns the address unreachables from this region are sourced
// from (the ::1 of the region prefix).
func (r *Region) routerAddr() ipaddr.Addr {
	return r.Prefix.Addr().AddLo(1)
}

func (r *Region) String() string {
	return fmt.Sprintf("%s AS%d %s density=%g aliased=%v", r.Prefix, r.asn, r.Class, r.density, r.Aliased)
}
