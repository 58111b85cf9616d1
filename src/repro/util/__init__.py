"""Small shared utilities: crash-safe writes, canonical JSON, identifier
and RNG streams, plain-text tables. Import the submodule you need — the
package root stays stdlib-only so ``repro lint`` runs without numpy."""

from .atomicio import AtomicFile, atomic_write_bytes, atomic_write_text

__all__ = ["AtomicFile", "atomic_write_bytes", "atomic_write_text"]
