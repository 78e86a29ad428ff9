//go:build !purego

package aesutil

// hasAESNI selects ExpandedKey's body for the life of the process: the
// instructions in aes_amd64.s where the CPU has them, softaes.go's tables
// where it does not.
var hasAESNI = cpuidAES()

func cpuidAES() bool

//go:noescape
func expandEnc(enc *[44]uint32, key *Key)

//go:noescape
func expandDec(dec, enc *[44]uint32)

//go:noescape
func encryptBlock(enc *[44]uint32, dst, src *[16]byte)

//go:noescape
func decryptBlock(dec *[44]uint32, dst, src *[16]byte)
