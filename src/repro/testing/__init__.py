"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the fault-injection harness used by the
robustness suite to prove that every guardrail and recovery path in the
placement pipeline actually fires.  It is importable from production code
paths' point of view, but installs nothing unless explicitly asked to.
Every pool worker imports it; names resolve on first use (see
:mod:`repro._lazy`), so a worker never loads the oracles below.

:mod:`repro.testing.legal` is the shared legality oracle: one vectorized
:func:`~repro.testing.legal.assert_legal` that every legalizer test calls,
so "legal" means exactly one thing across the whole suite.

:mod:`repro.testing.oracles` holds the reference forms of two production
stages, used only to pin the fast engines: :func:`force_field_direct`, the
literal Eq. 9 sum behind the FFT field, and :class:`AbacusLegalizer`, the
scalar Abacus the vectorized snap must match bit for bit.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".faults": (
        "FAULT_FACTORIES",
        "FAULT_SPEC_ENV",
        "FaultInjection",
        "KILL_EXIT_CODE",
        "burn_deadline",
        "corrupt_checkpoint",
        "corrupt_field",
        "env_faults",
        "fail_cg",
        "hang_worker",
        "install_env_hooks",
        "install_process_faults",
        "kill_worker",
        "resolve_fault",
        "slow_start",
    ),
    ".legal": ("assert_legal",),
    ".oracles": ("AbacusLegalizer", "force_field_direct"),
})
