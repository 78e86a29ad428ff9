package benchenv

import (
	"encoding/hex"
	"strings"
	"testing"

	"netneutral/internal/core"
)

func TestBenchEnvPacketsValid(t *testing.T) {
	env, err := NewBenchEnv(false, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, pkt := range map[string][]byte{
		"setup": env.SetupPkt, "data": env.DataPkt, "return": env.ReturnPkt, "alt": env.AltPkt,
	} {
		if _, err := env.Neut.ProcessScratch(core.NewScratch(), pkt); err != nil {
			t.Errorf("%s packet rejected: %v", name, err)
		}
	}
	v := env.FreshVanilla()
	if &v[0] == &env.VanillaPkt[0] {
		t.Error("FreshVanilla must copy")
	}
	// The forwarding baseline's datagram: IPv4 at TTL 255 from
	// 172.16.1.10 to 10.10.0.5, UDP 4000→5000 with a zero checksum, and
	// 64 zero bytes of payload.
	want := "4500005c00000000ff110468ac10010a0a0a0005" + "0fa0138800480000" + strings.Repeat("00", 64)
	if got := hex.EncodeToString(env.VanillaPkt); got != want {
		t.Errorf("VanillaPkt =\n%s\nwant\n%s", got, want)
	}
}
