pub fn binaries_have_no_public_surface() {}
