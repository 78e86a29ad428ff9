package benchenv

import (
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
}
