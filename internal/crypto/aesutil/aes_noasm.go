//go:build !amd64 || purego

package aesutil

// hasAESNI is a constant here, so ExpandedKey's hardware branches — and
// these stand-ins for aes_amd64.s with them — compile away.
const hasAESNI = false

func expandEnc(*[44]uint32, *Key)                    { panic("aesutil: no AES instructions") }
func expandDec(_, _ *[44]uint32)                     { panic("aesutil: no AES instructions") }
func encryptBlock(*[44]uint32, *[16]byte, *[16]byte) { panic("aesutil: no AES instructions") }
func decryptBlock(*[44]uint32, *[16]byte, *[16]byte) { panic("aesutil: no AES instructions") }
