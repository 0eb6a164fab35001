package machine

// MarshalText renders the configuration in the Format text description, so
// a Config embeds directly into JSON request/response bodies as a string.
// Together with UnmarshalText it gives the wire round-trip the gpserved
// HTTP API relies on: Format output always re-parses to an equivalent,
// validated configuration.
func (c *Config) MarshalText() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return AppendFormat(nil, c), nil
}

// UnmarshalText parses a machine description in the Format text format.
func (c *Config) UnmarshalText(data []byte) error {
	parsed, err := ParseString(string(data))
	if err != nil {
		return err
	}
	*c = *parsed
	return nil
}
