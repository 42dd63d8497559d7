package probe_test

import (
	"fmt"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
)

func ExampleAppendEchoRequest() {
	src := ipaddr.MustParse("2001:db8::100")
	dst := ipaddr.MustParse("2600:9000::1")
	pkt := probe.AppendEchoRequest(nil, src, dst, 0x1234, 1, []byte("cookie"))

	p, err := probe.Parse(pkt)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Kind, p.Header.Dst, p.EchoID, string(p.Payload))
	// Output: EchoRequest 2600:9000::1 4660 cookie
}

func ExampleParse_synAck() {
	src := ipaddr.MustParse("2001:db8::100")
	dst := ipaddr.MustParse("2600:9000::1")
	syn := probe.AppendTCPSyn(nil, src, dst, 54321, 443, 99)
	// The listening host answers; ack must be seq+1.
	reply := probe.AppendTCPSynAck(nil, dst, src, 443, 54321, 7, 100)

	q, _ := probe.Parse(syn)
	r, _ := probe.Parse(reply)
	fmt.Println(q.Kind, r.Kind, r.TCPAck == q.TCPSeq+1)
	// Output: TCPSyn TCPSynAck true
}
