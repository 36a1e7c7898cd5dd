package rlnc

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

func init() {
	protoreg.Register("rlnc", "RLNC", func(b protoreg.Build) (node.Protocol, error) {
		if err := protoreg.NewOpts(b.Options).Err(); err != nil {
			return nil, err
		}
		var cfg Config
		if b.Base {
			cfg.Base = true
			cfg.Image = b.Image
		}
		return New(cfg), nil
	})
}
