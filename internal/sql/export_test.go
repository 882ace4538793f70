package sql

// ShapeBuilds reports how many templates c has built.
func ShapeBuilds(c *ShapeCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

// ShapeKey returns src's shape key, or false when src bypasses the
// shape cache.
func ShapeKey(src string) (string, bool) {
	var sc shapeScratch
	if len(src) > maxShapeText || !sc.scan(src) {
		return "", false
	}
	return string(sc.key), true
}
