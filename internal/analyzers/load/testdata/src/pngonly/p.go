// Package pngonly imports a standard package that no package of the
// module imports.
package pngonly

import (
	"bytes"
	"image/png"
)

// Decode reports whether b is a PNG image.
func Decode(b []byte) error {
	_, err := png.Decode(bytes.NewReader(b))
	return err
}
