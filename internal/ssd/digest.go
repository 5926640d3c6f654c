package ssd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
)

// digestSalt versions the canonical encoding beneath ConfigDigest. Bump it
// whenever the encoding itself changes meaning (adding a Config field does
// not need a bump: the field index stream changes the digest on its own).
const digestSalt = "dloop-config-digest-v1"

// ConfigDigest returns a stable, collision-resistant digest of a Config.
// Two configs digest equally exactly when they describe the same simulator:
// defaults are applied first (so the zero FTL and "DLOOP" coalesce) and
// Geometry is hashed by value, not by pointer. The digest keys the
// warm-up grouping and the persistent checkpoint cache, and is embedded in
// every encoded checkpoint so a restore into a differently configured
// controller is rejected.
//
// The canonical encoding walks the struct with reflection in declaration
// order, tagging every field with its index and kind, so any field change —
// including in nested structs behind pointers — splits the digest. A Config
// field of a kind the walk does not support fails loudly at digest time
// rather than being silently skipped.
func ConfigDigest(cfg Config) [sha256.Size]byte {
	cfg.setDefaults()
	h := sha256.New()
	h.Write([]byte(digestSalt))
	digestValue(h, reflect.ValueOf(cfg))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func digestValue(h hash.Hash, v reflect.Value) {
	var scratch [8]byte
	put := func(tag byte, u uint64) {
		binary.LittleEndian.PutUint64(scratch[:], u)
		h.Write([]byte{tag})
		h.Write(scratch[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			put('f', uint64(i))
			digestValue(h, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			put('p', 0)
			return
		}
		put('p', 1)
		digestValue(h, v.Elem())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put('i', uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put('u', v.Uint())
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		put('b', b)
	case reflect.Float32, reflect.Float64:
		put('d', math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		put('s', uint64(len(s)))
		h.Write([]byte(s))
	default:
		panic(fmt.Sprintf("ssd: ConfigDigest: unsupported field kind %v", v.Kind()))
	}
}
