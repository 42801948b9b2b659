"""perfbench — the repository's end-to-end benchmark (see README.md)."""
