// Command reflector is the bare UDP floor of the daemon-echo workload: a
// separate process that forwards each datagram unchanged between the
// load generator's two sockets, through the same net package calls
// neutralizerd's per-packet loop uses. The generator's round trip
// against it is kernel + Go runtime + net package; neutralizerd's round
// trip minus this floor is the daemon's own share.
//
// It learns its two peers from traffic: a control frame (first byte
// 0x00, as neutralizerd's registration frame) marks the sender as the
// customer socket; any other sender is the outside socket.
package main

import (
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatalf("reflector: %v", err)
	}
	// Same shape as neutralizerd's line, so one parser finds the port.
	log.Printf("reflector listening on %s, forwarding between two peers", conn.LocalAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		conn.Close()
	}()

	var customer, outside netip.AddrPort
	buf := make([]byte, 64<<10)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed by the signal handler
		}
		switch {
		case n > 0 && buf[0] == 0x00:
			customer = from
		case from == customer:
			_, _ = conn.WriteToUDPAddrPort(buf[:n], outside) // a lost datagram shows as a generator timeout
		default:
			outside = from
			_, _ = conn.WriteToUDPAddrPort(buf[:n], customer)
		}
	}
}
