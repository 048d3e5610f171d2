"""Exception hierarchy. Every error carries a human-readable witness."""


class MasseyLabError(Exception):
    pass


# -- group construction ------------------------------------------------------

class NonAssociative(MasseyLabError):
    pass


class NoIdentity(MasseyLabError):
    pass


class NoInverse(MasseyLabError):
    pass


class GeneratorsDontGenerate(MasseyLabError):
    pass


class SizeLimit(MasseyLabError):
    pass


class BadParameter(MasseyLabError):
    pass


class IndexOutOfRange(MasseyLabError):
    pass


# -- homomorphisms and searches ----------------------------------------------

class NotAHomomorphism(MasseyLabError):
    pass


# -- cochains ----------------------------------------------------------------

class DegreeLimit(MasseyLabError):
    pass


class ShapeMismatch(MasseyLabError):
    pass


class NotACocycle(MasseyLabError):
    pass


class NotApplicable(MasseyLabError):
    pass


# -- Massey / embedding ------------------------------------------------------

class NotADefiningSystem(MasseyLabError):
    pass


class NotInKernel(MasseyLabError):
    pass


class NotCentral(MasseyLabError):
    pass


class KernelNotOrderP(MasseyLabError):
    pass


class TargetMismatch(MasseyLabError):
    pass


class SizeMismatch(MasseyLabError):
    pass


class AdjacentOnes(MasseyLabError):
    pass


class HypothesisViolated(MasseyLabError):
    pass


class FormDegenerate(MasseyLabError):
    pass


class ParseError(MasseyLabError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}: {message}" if column is None else \
                f"line {line}, col {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
