"""The lab's end-to-end benchmark (see labbench/README.md)."""
