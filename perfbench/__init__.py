"""End-to-end FeatAug benchmark (see README.md beside this file)."""
