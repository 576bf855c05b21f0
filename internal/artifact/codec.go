package artifact

import (
	"encoding"
	"fmt"
)

// EncodeGob serializes v through its MarshalBinary method; v must
// implement encoding.BinaryMarshaler. Despite the name, no gob is
// involved: the name stays only until a benchmark change renames it
// together with DecodeGob and the artifact.decode_gob_us span that
// times DecodeGob.
func EncodeGob(v any) ([]byte, error) {
	m, ok := v.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("artifact: encode: %T has no MarshalBinary method", v)
	}
	b, err := m.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("artifact: encode: %w", err)
	}
	return b, nil
}

// DecodeGob deserializes data produced by EncodeGob into v through its
// UnmarshalBinary method; v must implement encoding.BinaryUnmarshaler.
// The name stays only until a benchmark change renames it together with
// EncodeGob and the artifact.decode_gob_us span.
func DecodeGob(data []byte, v any) error {
	u, ok := v.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("artifact: decode: %T has no UnmarshalBinary method", v)
	}
	if err := u.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("artifact: decode: %w", err)
	}
	return nil
}
